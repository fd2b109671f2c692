(* Flip-feasibility pre-analysis for Causality Analysis.

   Causality Analysis re-executes the failing sequence once per race,
   with the racing pair flipped.  A flip only needs execution when the
   re-run could plausibly {e complete}: the verdict Benign covers every
   non-completing outcome (still fails, deadlocks, diverges), so a flip
   whose re-run provably cannot complete can be marked Benign without
   touching the VM.  Two static proofs are attempted, on the failing
   trace and the flip plan alone:

   - {e Infeasible}: the plan cannot enforce the reversed order at all —
     the spawn-prerequisite hoist of {!flip_plan} restored the original
     program order (the planned order is the failing sequence itself, or
     keeps first before second).  Replaying it reproduces the failure.

   - {e Preserves_failure}: the planned order is a genuine permutation,
     but every reordered pair of conflicting accesses is independent of
     the failure's control/data slice.  Concretely: (a) the permutation
     is lock-consistent, so enforcement cannot block; (b) a dynamic
     backward slice from the faulting event — register def-use chains,
     branch conditions of slice threads, writers to sliced locations,
     spawn prerequisites — yields the location set the failure depends
     on, and no reordered access touches it (at object granularity for
     heap locations); (c) a forward taint walk from the reordered reads
     proves the changed values never reach a branch, an address
     computation, an allocation, a spawn argument, a failure predicate
     or a sliced location.  Then every thread executes the same
     instruction sequence, the faulting instruction sees the same
     operands, and the re-run fails identically.

   Anything short of both proofs is {e Unknown}: execute the flip. *)

module Iid = Ksim.Access.Iid
module Addr = Ksim.Addr
module I = Ksim.Instr
module SS = Set.Make (String)
module IS = Set.Make (Int)

type verdict =
  | Infeasible of string         (* the plan replays the original order *)
  | Preserves_failure of string  (* reordering cannot avert the failure *)
  | Unknown of string            (* no proof: execute the flip *)

let prunable = function
  | Infeasible r -> Some ("infeasible: " ^ r)
  | Preserves_failure r -> Some ("preserves failure: " ^ r)
  | Unknown _ -> None

let pp ppf = function
  | Infeasible r -> Fmt.pf ppf "infeasible (%s)" r
  | Preserves_failure r -> Fmt.pf ppf "preserves failure (%s)" r
  | Unknown r -> Fmt.pf ppf "unknown (%s)" r

(* --- instruction register use/def --------------------------------------- *)

let rec expr_regs acc : I.expr -> SS.t = function
  | I.Const _ -> acc
  | I.Reg r -> SS.add r acc
  | I.Add (a, b) | I.Sub (a, b) | I.Mul (a, b) | I.Eq (a, b) | I.Ne (a, b)
  | I.Lt (a, b) | I.Le (a, b) | I.Gt (a, b) | I.Ge (a, b) | I.And (a, b)
  | I.Or (a, b) -> expr_regs (expr_regs acc a) b
  | I.Not a | I.Is_null a -> expr_regs acc a

let addr_regs acc : I.addr_expr -> SS.t = function
  | I.Global _ -> acc
  | I.Deref (e, _) -> expr_regs acc e
  | I.At (e, i) -> expr_regs (expr_regs acc e) i

let uses : I.t -> SS.t = function
  | I.Load { src; _ } -> addr_regs SS.empty src
  | I.Store { dst; src } -> addr_regs (expr_regs SS.empty src) dst
  | I.Rmw { loc; delta; _ } -> addr_regs (expr_regs SS.empty delta) loc
  | I.Assign { src; _ } -> expr_regs SS.empty src
  | I.Branch_if { cond; _ } -> expr_regs SS.empty cond
  | I.Goto _ | I.Return | I.Nop | I.Lock _ | I.Unlock _ -> SS.empty
  | I.Alloc { fields; _ } ->
    List.fold_left (fun a (_, e) -> expr_regs a e) SS.empty fields
  | I.Free { ptr } -> expr_regs SS.empty ptr
  | I.Queue_work { arg; _ } | I.Call_rcu { arg; _ } | I.Arm_timer { arg; _ }
  | I.Enable_irq { arg; _ } -> expr_regs SS.empty arg
  | I.Bug_on e | I.Warn_on e -> expr_regs SS.empty e
  | I.List_add { list; item } | I.List_del { list; item } ->
    addr_regs (expr_regs SS.empty item) list
  | I.List_contains { list; item; _ } ->
    addr_regs (expr_regs SS.empty item) list
  | I.List_empty { list; _ } | I.List_first { list; _ } ->
    addr_regs SS.empty list
  | I.Ref_get { loc } | I.Ref_put { loc; _ } -> addr_regs SS.empty loc

let defines : I.t -> string option = function
  | I.Load { dst; _ } | I.Assign { dst; _ } | I.Alloc { dst; _ }
  | I.List_contains { dst; _ } | I.List_empty { dst; _ }
  | I.List_first { dst; _ } -> Some dst
  | I.Rmw { ret; _ } | I.Ref_put { ret; _ } -> ret
  | I.Store _ | I.Branch_if _ | I.Goto _ | I.Return | I.Nop | I.Free _
  | I.Lock _ | I.Unlock _ | I.Queue_work _ | I.Call_rcu _ | I.Arm_timer _
  | I.Enable_irq _ | I.Bug_on _ | I.Warn_on _ | I.List_add _ | I.List_del _
  | I.Ref_get _ -> None

(* --- critical-section nesting ------------------------------------------- *)

(* Locks held by the event's thread when it executed (the event's own
   acquisition counts).  This is the trace-level nesting depth the
   surrounding/nested structure of [Race.surrounds] reflects. *)
let nesting_depth (trace : Ksim.Machine.event list) (iid : Iid.t) : int =
  let held : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let rec go = function
    | [] -> 0
    | (e : Ksim.Machine.event) :: rest ->
      let tid = e.iid.Iid.tid in
      let d = Option.value ~default:0 (Hashtbl.find_opt held tid) in
      let d' =
        match e.lock_op with
        | Some (_, `Acquire) -> d + 1
        | Some (_, `Release) -> d - 1
        | None -> d
      in
      if Iid.equal e.iid iid then max d d'
      else (
        Hashtbl.replace held tid d';
        go rest)
  in
  go trace

(* --- the failing-trace context ------------------------------------------ *)

let overlaps_set locs addr =
  Addr.Set.exists (fun l -> Addr.overlaps l addr) locs

let obj_in objs addr =
  match Addr.obj_of addr with Some o -> IS.mem o objs | None -> false

(* Everything about the failing trace that no flip plan changes.  Built
   once per analysis and never mutated afterwards, so concurrent
   readers may share it. *)
type ctx = {
  events : Ksim.Machine.event array;
  index : (Iid.t, int) Hashtbl.t;  (* trace index per iid *)
  l_locs : Addr.Set.t;  (* locations on the failure slice *)
  l_objs : IS.t;  (* heap objects of those locations *)
}

let events c = c.events
let index_of c iid = Hashtbl.find_opt c.index iid

(* Dynamic backward slice from the faulting event (the last trace
   event): the registers, locations, branches and spawns the failure
   depends on.  Returns the sliced locations. *)
let backward_slice (events : Ksim.Machine.event array) : Addr.Set.t =
  let n = Array.length events in
  let sliced = Array.make n false in
  let l_locs = ref Addr.Set.empty in
  let rel_tids = ref IS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    let live : (int, SS.t ref) Hashtbl.t = Hashtbl.create 8 in
    let live_of tid =
      match Hashtbl.find_opt live tid with
      | Some s -> s
      | None ->
        let s = ref SS.empty in
        Hashtbl.add live tid s;
        s
    in
    for i = n - 1 downto 0 do
      let e = events.(i) in
      let tid = e.iid.Iid.tid in
      let lv = live_of tid in
      let def = defines e.instr in
      let defs_live =
        match def with Some d -> SS.mem d !lv | None -> false
      in
      let writes_l =
        match e.access with
        | Some a when a.kind <> I.Read -> overlaps_set !l_locs a.addr
        | _ -> false
      in
      let spawn_rel =
        List.exists (fun (t, _) -> IS.mem t !rel_tids) e.spawned
      in
      let ctrl_rel =
        (* Branches steer which sliced instructions execute;
           allocations create the objects sliced locations live in. *)
        match e.instr with
        | I.Branch_if _ | I.Alloc _ -> IS.mem tid !rel_tids
        | _ -> false
      in
      if
        i = n - 1 || sliced.(i) || defs_live || writes_l || spawn_rel
        || ctrl_rel
      then (
        if not sliced.(i) then (
          sliced.(i) <- true;
          changed := true);
        if not (IS.mem tid !rel_tids) then (
          rel_tids := IS.add tid !rel_tids;
          changed := true);
        (match def with Some d -> lv := SS.remove d !lv | None -> ());
        lv := SS.union (uses e.instr) !lv;
        match e.access with
        | Some a ->
          if not (Addr.Set.mem a.addr !l_locs) then (
            l_locs := Addr.Set.add a.addr !l_locs;
            changed := true)
        | None -> ())
    done
  done;
  !l_locs

let context (trace : Ksim.Machine.event list) : ctx =
  let events = Array.of_list trace in
  let index : (Iid.t, int) Hashtbl.t =
    Hashtbl.create (2 * Array.length events)
  in
  Array.iteri
    (fun i (e : Ksim.Machine.event) ->
      if not (Hashtbl.mem index e.iid) then Hashtbl.add index e.iid i)
    events;
  let l_locs = backward_slice events in
  let l_objs =
    Addr.Set.fold
      (fun l acc ->
        match Addr.obj_of l with Some o -> IS.add o acc | None -> acc)
      l_locs IS.empty
  in
  { events; index; l_locs; l_objs }

(* --- the analysis ------------------------------------------------------- *)

(* Only the work that depends on the plan happens here: the permutation,
   its lock consistency, the reordered pairs and the taint walk. *)
let analyze (ctx : ctx) ~(plan : Iid.t list) ~(first : Ksim.Access.t)
    ~(second : Ksim.Access.t) : verdict =
  Telemetry.Probe.with_span ~cat:"analysis" "analysis.flipfeas" @@ fun () ->
  Telemetry.Probe.count "analysis.flipfeas_queries";
  let events = ctx.events in
  let n = Array.length events in
  let plan_arr = Array.of_list plan in
  if n = 0 then Unknown "empty trace"
  else if Array.length plan_arr <> n then
    Unknown "plan inserts a pending event: not a permutation of the trace"
  else
    (* Plan position per trace index, trace index per plan position. *)
    let pos = Array.make n (-1) in
    let at = Array.make n (-1) in
    let missing = ref false and dup = ref false in
    Array.iteri
      (fun p iid ->
        match Hashtbl.find_opt ctx.index iid with
        | None -> missing := true
        | Some i ->
          if pos.(i) >= 0 then dup := true;
          pos.(i) <- p;
          at.(p) <- i)
      plan_arr;
    if !missing then
      Unknown "plan inserts a pending event: not a permutation of the trace"
    else if !dup then Unknown "plan repeats an event"
    else
      (* The displaced window [lo, hi]: every index outside it is a
         fixed point of the permutation. *)
      let lo = ref n and hi = ref (-1) in
      Array.iteri
        (fun i p ->
          if p <> i then (
            if i < !lo then lo := i;
            hi := i))
        pos;
      if !hi < 0 then
        Infeasible "the planned order replays the failing sequence"
      else
        let kept_order =
          match (index_of ctx first.iid, index_of ctx second.iid) with
          | Some fi, Some si -> pos.(fi) < pos.(si)
          | _ -> false
        in
        (* Lock consistency of the permuted order: enforcement must never
           block, or the plan policy diverges from the plan. *)
        let lock_issue =
          let holders : (string, int) Hashtbl.t = Hashtbl.create 4 in
          let issue = ref None in
          Array.iter
            (fun i ->
              if !issue = None then
                let e = events.(i) in
                match e.lock_op with
                | Some (l, `Acquire) -> (
                  match Hashtbl.find_opt holders l with
                  | Some _ ->
                    issue :=
                      Some
                        (Fmt.str "planned order blocks on lock %s at %a" l
                           Iid.pp e.iid)
                  | None -> Hashtbl.replace holders l e.iid.Iid.tid)
                | Some (l, `Release) -> Hashtbl.remove holders l
                | None -> ())
            at;
          !issue
        in
        match lock_issue with
        | Some r -> Unknown r
        | None -> (
          let l_locs = ctx.l_locs and l_objs = ctx.l_objs in
          let touches_slice addr =
            overlaps_set l_locs addr || obj_in l_objs addr
          in
          (* Reordered conflicting pairs.  Both ends of an inverted pair
             lie in the displaced window, so the scan stays inside it.  A
             pair on the slice means the failure-relevant memory order
             changed: execute.  Off the slice, the read ends seed the
             taint walk and write-against-write reorders dirty their
             location (a later read of it sees the other writer). *)
          let seeds = Array.make n false in
          let dirty0 = ref Addr.Set.empty in
          let slice_hit = ref None in
          for i = !lo to !hi do
            match events.(i).access with
            | None -> ()
            | Some a ->
              for j = i + 1 to !hi do
                match events.(j).access with
                | None -> ()
                | Some b ->
                  if pos.(j) < pos.(i) && Ksim.Access.conflicting a b then
                    if touches_slice a.addr || touches_slice b.addr then (
                      if !slice_hit = None then
                        slice_hit :=
                          Some
                            (Fmt.str
                               "reorders %a against %a on the failure slice"
                               Addr.pp a.addr Addr.pp b.addr))
                    else (
                      if a.kind <> I.Write && b.kind <> I.Read then
                        seeds.(i) <- true;
                      if b.kind <> I.Write && a.kind <> I.Read then
                        seeds.(j) <- true;
                      if a.kind <> I.Read && b.kind <> I.Read then
                        dirty0 :=
                          Addr.Set.add a.addr (Addr.Set.add b.addr !dirty0))
              done
          done;
          match !slice_hit with
          | Some r -> Unknown r
          | None ->
            (* Forward taint from the reordered reads: where can the
               changed values flow?  Register taint is recomputed per
               pass; the dirty location set grows monotonically. *)
            let dirty = ref !dirty0 in
            let bail = ref None in
            let pass () =
              let grew = ref false in
              let taint : (int, SS.t ref) Hashtbl.t = Hashtbl.create 8 in
              let taint_of tid =
                match Hashtbl.find_opt taint tid with
                | Some s -> s
                | None ->
                  let s = ref SS.empty in
                  Hashtbl.add taint tid s;
                  s
              in
              let i = ref 0 in
              while !bail = None && !i < n do
                let e = events.(!i) in
                let tid = e.iid.Iid.tid in
                let tn = taint_of tid in
                let t_expr ex =
                  not (SS.is_empty (SS.inter (expr_regs SS.empty ex) !tn))
                in
                let t_addr a =
                  not (SS.is_empty (SS.inter (addr_regs SS.empty a) !tn))
                in
                let set r b =
                  tn := if b then SS.add r !tn else SS.remove r !tn
                in
                let reads_dirty =
                  seeds.(!i)
                  ||
                  match e.access with
                  | Some a when a.kind <> I.Write ->
                    overlaps_set !dirty a.addr
                  | _ -> false
                in
                let add_dirty () =
                  match e.access with
                  | Some a ->
                    if not (Addr.Set.mem a.addr !dirty) then (
                      dirty := Addr.Set.add a.addr !dirty;
                      grew := true)
                  | None -> ()
                in
                let stop r = bail := Some r in
                (match e.instr with
                | I.Assign { dst; src } -> set dst (t_expr src)
                | I.Load { dst; src = a } ->
                  if t_addr a then stop "tainted address computation"
                  else set dst reads_dirty
                | I.Store { dst = a; src } ->
                  if t_addr a then stop "tainted address computation"
                  else if t_expr src then add_dirty ()
                | I.Rmw { ret; loc = a; delta } ->
                  if t_addr a then stop "tainted address computation"
                  else (
                    if t_expr delta || reads_dirty then add_dirty ();
                    match ret with
                    | Some r -> set r reads_dirty
                    | None -> ())
                | I.Branch_if { cond; _ } ->
                  if t_expr cond then stop "tainted branch condition"
                | I.Bug_on ex | I.Warn_on ex ->
                  if t_expr ex then stop "tainted failure predicate"
                | I.Free { ptr } ->
                  if t_expr ptr then stop "tainted free target"
                | I.Alloc { dst; fields; _ } ->
                  if List.exists (fun (_, ex) -> t_expr ex) fields then
                    stop "tainted allocation"
                  else set dst false
                | I.Queue_work { arg; _ } | I.Call_rcu { arg; _ }
                | I.Arm_timer { arg; _ } | I.Enable_irq { arg; _ } ->
                  if t_expr arg then stop "tainted spawn argument"
                | I.List_add { list = a; item }
                | I.List_del { list = a; item } ->
                  if t_addr a then stop "tainted address computation"
                  else if t_expr item then add_dirty ()
                | I.List_contains { dst; list = a; item } ->
                  if t_addr a then stop "tainted address computation"
                  else set dst (reads_dirty || t_expr item)
                | I.List_empty { dst; list = a }
                | I.List_first { dst; list = a } ->
                  if t_addr a then stop "tainted address computation"
                  else set dst reads_dirty
                | I.Ref_get { loc = a } ->
                  if t_addr a then stop "tainted address computation"
                  else if reads_dirty then add_dirty ()
                | I.Ref_put { ret; loc = a } ->
                  if t_addr a then stop "tainted address computation"
                  else (
                    if reads_dirty then add_dirty ();
                    match ret with
                    | Some r -> set r reads_dirty
                    | None -> ())
                | I.Goto _ | I.Return | I.Nop | I.Lock _ | I.Unlock _ ->
                  ());
                incr i
              done;
              !grew
            in
            let rec fix () = if pass () && !bail = None then fix () in
            fix ();
            match !bail with
            | Some r -> Unknown r
            | None ->
              if
                Addr.Set.exists
                  (fun d ->
                    overlaps_set l_locs d || obj_in l_objs d)
                  !dirty
              then Unknown "value impact reaches the failure slice"
              else if kept_order then
                Infeasible
                  "spawn prerequisites keep the pair in program order"
              else
                Preserves_failure
                  "the reordered accesses are independent of the \
                   failure's control/data slice")
