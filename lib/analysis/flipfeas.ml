(* Flip-feasibility pre-analysis for Causality Analysis.

   Causality Analysis re-executes the failing sequence once per race,
   with the racing pair flipped.  A flip only needs execution when the
   re-run could plausibly {e complete}: the verdict Benign covers every
   non-completing outcome (still fails, deadlocks, diverges), so a flip
   whose re-run provably cannot complete can be marked Benign without
   touching the VM.  Two static proofs are attempted, on the failing
   trace and the flip plan alone:

   - {e Infeasible}: the plan cannot enforce the reversed order at all —
     the spawn-prerequisite hoist of the flip plan restored the original
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

   Anything short of both proofs is {e Unknown}: execute the flip.  The
   trace is indexed once per analysis (names interned as ints, the slice
   resolved per location), so each proof is linear array work. *)

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

let rec fold_expr f acc : I.expr -> 'a = function
  | I.Const _ -> acc
  | I.Reg r -> f r acc
  | I.Add (a, b) | I.Sub (a, b) | I.Mul (a, b) | I.Eq (a, b) | I.Ne (a, b)
  | I.Lt (a, b) | I.Le (a, b) | I.Gt (a, b) | I.Ge (a, b) | I.And (a, b)
  | I.Or (a, b) -> fold_expr f (fold_expr f acc a) b
  | I.Not a | I.Is_null a -> fold_expr f acc a

let fold_addr f acc : I.addr_expr -> 'a = function
  | I.Global _ -> acc
  | I.Deref (e, _) -> fold_expr f acc e
  | I.At (e, i) -> fold_expr f (fold_expr f acc e) i

let expr_regs acc e = fold_expr SS.add acc e
let addr_regs acc a = fold_addr SS.add acc a

(* The registers an instruction reads, folded from [e] with [f]: those
   of its address computation, and those of the value it stores, tests,
   allocates or passes on. *)
let operands f e : I.t -> 'a * 'a = function
  | I.Load { src = a; _ } | I.List_empty { list = a; _ }
  | I.List_first { list = a; _ } | I.Ref_get { loc = a }
  | I.Ref_put { loc = a; _ } -> (fold_addr f e a, e)
  | I.Store { dst = a; src = v } | I.Rmw { loc = a; delta = v; _ }
  | I.List_add { list = a; item = v } | I.List_del { list = a; item = v }
  | I.List_contains { list = a; item = v; _ } ->
    (fold_addr f e a, fold_expr f e v)
  | I.Assign { src = v; _ } | I.Branch_if { cond = v; _ } | I.Free { ptr = v }
  | I.Queue_work { arg = v; _ } | I.Call_rcu { arg = v; _ }
  | I.Arm_timer { arg = v; _ } | I.Enable_irq { arg = v; _ } | I.Bug_on v
  | I.Warn_on v -> (e, fold_expr f e v)
  | I.Alloc { fields; _ } ->
    (e, List.fold_left (fun a (_, v) -> fold_expr f a v) e fields)
  | I.Goto _ | I.Return | I.Nop | I.Lock _ | I.Unlock _ -> (e, e)

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

(* --- the failing-trace index -------------------------------------------- *)

type section = {
  cs_tid : int;
  cs_lock : string;
  cs_start : int;
  cs_stop : int option;
}

let critical_sections (events : Ksim.Machine.event array) : section list =
  let open_cs = Hashtbl.create 8 and out = ref [] in
  let close (cs_tid, cs_lock) cs_start cs_stop =
    out := { cs_tid; cs_lock; cs_start; cs_stop } :: !out
  in
  Array.iteri
    (fun i (e : Ksim.Machine.event) ->
      match e.lock_op with
      | Some (l, `Acquire) -> Hashtbl.replace open_cs (e.iid.Iid.tid, l) i
      | Some (l, `Release) ->
        let key = (e.iid.Iid.tid, l) in
        Option.iter
          (fun start ->
            Hashtbl.remove open_cs key;
            close key start (Some i))
          (Hashtbl.find_opt open_cs key)
      | None -> ())
    events;
  Hashtbl.iter (fun key start -> close key start None) open_cs;
  !out

(* What only the proofs read, with every name interned as an int.  Per
   event: the registers of its address computation ([areg]) and of its
   other operands ([vreg]), the register it defines ([def], -1 for
   none), its location ([loc], -1 for none) and its lock operation
   ([lock]: [l + 1] acquires lock [l], [-(l + 1)] releases it).  Per
   location: the trace's locations overlapping it and whether it
   touches the failure slice. *)
type proof_index = {
  areg : int array array;
  vreg : int array array;
  def : int array;
  nregs : int;
  loc : int array;
  overlap : int array array;
  lock : int array;
  nlocks : int;
  on_slice : Bytes.t;
}

type ctx = {
  events : Ksim.Machine.event array;
  index : (Iid.t, int) Hashtbl.t;  (* trace index per iid *)
  sections : section list;
  spawns : int array;  (* indices of the events that spawn a thread *)
  proof : proof_index Lazy.t;
}

type flip = { lo : int; window : int array; pending : (int * Iid.t) option }

let events c = c.events
let index_of c iid = Hashtbl.find_opt c.index iid
let sections c = c.sections
let spawns c = c.spawns

(* Flag sets over interned ids, a byte per id: small enough to stay in
   the minor heap for any trace. *)
let flags n = Bytes.make n '\000'
let mem fl i = Bytes.get fl i <> '\000'
let flag fl i b = Bytes.set fl i (if b then '\001' else '\000')

let rec any_from fl (ids : int array) k =
  k < Array.length ids && (mem fl ids.(k) || any_from fl ids (k + 1))

(* Does any of [ids] carry its flag? *)
let any fl ids = any_from fl ids 0

(* The id of [k] in [tbl], ids being dense from 0. *)
let intern tbl k =
  match Hashtbl.find_opt tbl k with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.add tbl k i;
    i

(* Dynamic backward slice from the faulting event (the last trace
   event): the registers, locations, branches and spawns the failure
   depends on.  Returns a flag per location: is it sliced? *)
let backward_slice (events : Ksim.Machine.event array) pi ~nlocs =
  let n = Array.length events in
  let sliced = flags n in
  let in_l = flags nlocs in
  let rel_tids = ref IS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    let live = flags pi.nregs in
    for i = n - 1 downto 0 do
      let e = events.(i) in
      let tid = e.iid.Iid.tid in
      let d = pi.def.(i) in
      let writes_l =
        match e.access with
        | Some a when a.kind <> I.Read -> any in_l pi.overlap.(pi.loc.(i))
        | _ -> false
      in
      (* Branches steer which sliced instructions execute; allocations
         create the objects sliced locations live in. *)
      let ctrl =
        match e.instr with I.Branch_if _ | I.Alloc _ -> true | _ -> false
      in
      if
        i = n - 1 || mem sliced i
        || (d >= 0 && mem live d)
        || writes_l
        || List.exists (fun (t, _) -> IS.mem t !rel_tids) e.spawned
        || (ctrl && IS.mem tid !rel_tids)
      then (
        if not (mem sliced i) then (
          flag sliced i true;
          changed := true);
        if not (IS.mem tid !rel_tids) then (
          rel_tids := IS.add tid !rel_tids;
          changed := true);
        if d >= 0 then flag live d false;
        Array.iter (fun r -> flag live r true) pi.areg.(i);
        Array.iter (fun r -> flag live r true) pi.vreg.(i);
        let l = pi.loc.(i) in
        if l >= 0 && not (mem in_l l) then (
          flag in_l l true;
          changed := true))
    done
  done;
  in_l

let proof_index (events : Ksim.Machine.event array) : proof_index =
  let n = Array.length events in
  let regs = Hashtbl.create 16 and locs = Hashtbl.create 16 in
  let locks = Hashtbl.create 4 in
  let areg = Array.make n [||] and vreg = Array.make n [||] in
  let def = Array.make n (-1) and loc = Array.make n (-1) in
  let lock = Array.make n 0 in
  Array.iteri
    (fun i (e : Ksim.Machine.event) ->
      let tid = e.iid.Iid.tid in
      let reg r = intern regs (tid, r) in
      let a, v = operands (fun r acc -> reg r :: acc) [] e.instr in
      areg.(i) <- Array.of_list a;
      vreg.(i) <- Array.of_list v;
      Option.iter (fun d -> def.(i) <- reg d) (defines e.instr);
      Option.iter
        (fun (a : Ksim.Access.t) -> loc.(i) <- intern locs a.addr)
        e.access;
      match e.lock_op with
      | Some (l, `Acquire) -> lock.(i) <- intern locks l + 1
      | Some (l, `Release) -> lock.(i) <- -(intern locks l + 1)
      | None -> ())
    events;
  let nlocs = Hashtbl.length locs in
  let addr = Array.make nlocs (Addr.Global "") in
  Hashtbl.iter (fun a l -> addr.(l) <- a) locs;
  (* Overlapping locations share their global or heap object. *)
  let members = Hashtbl.create 16 in
  let key a = match Addr.obj_of a with Some o -> Addr.Whole o | None -> a in
  Array.iteri (fun l a -> Hashtbl.add members (key a) l) addr;
  let overlap =
    Array.map
      (fun a ->
        Array.of_list
          (List.filter
             (fun m -> Addr.overlaps a addr.(m))
             (Hashtbl.find_all members (key a))))
      addr
  in
  let pi =
    { areg; vreg; def; nregs = Hashtbl.length regs; loc; overlap; lock;
      nlocks = Hashtbl.length locks; on_slice = Bytes.empty }
  in
  (* A location touches the slice when a sliced location shares its
     global or heap object. *)
  let in_l = backward_slice events pi ~nlocs in
  let sliced = Hashtbl.create 8 in
  Array.iteri
    (fun l a -> if mem in_l l then Hashtbl.replace sliced (key a) ())
    addr;
  let on_slice = flags nlocs in
  Array.iteri (fun l a -> flag on_slice l (Hashtbl.mem sliced (key a))) addr;
  { pi with on_slice }

let context (trace : Ksim.Machine.event list) : ctx =
  let events = Array.of_list trace in
  let index : (Iid.t, int) Hashtbl.t =
    Hashtbl.create (2 * Array.length events)
  in
  let spawns = ref [] in
  for i = Array.length events - 1 downto 0 do
    let e = events.(i) in
    Hashtbl.replace index e.iid i;
    if e.spawned <> [] then spawns := i :: !spawns
  done;
  { events; index; sections = critical_sections events;
    spawns = Array.of_list !spawns; proof = lazy (proof_index events) }

(* --- the analysis ------------------------------------------------------- *)

(* Taint-walk steps: an event reaches sink [r] when [b], defines
   register [d] (if any) with taint [b], or dirties location [l]. *)
let sink_if b r = if b then Some r else None

let define taint d b =
  if d >= 0 then flag taint d b;
  None

let add_dirty dirty grew l =
  if l >= 0 && not (mem dirty l) then (
    flag dirty l true;
    grew := true)

(* Only the work that depends on the plan happens here: the permutation,
   its lock consistency, the reordered pairs and the taint walk. *)
let analyze (ctx : ctx) (f : flip) ~(first : Ksim.Access.t)
    ~(second : Ksim.Access.t) : verdict =
  Telemetry.Probe.with_span ~cat:"analysis" "analysis.flipfeas" @@ fun () ->
  Telemetry.Probe.count "analysis.flipfeas_queries";
  let events = ctx.events and base = f.lo and w = f.window in
  let n = Array.length events and len = Array.length w in
  let inside i = base <= i && i < base + len in
  (* Plan position of each window index, less [base]. *)
  let wpos = Array.make len (-1) in
  Array.iteri (fun p i -> if inside i then wpos.(i - base) <- p) w;
  let permutes =
    base >= 0 && base + len <= n && Array.for_all (( <= ) 0) wpos
  in
  if n = 0 then Unknown "empty trace"
  else if f.pending <> None then
    Unknown "plan inserts a pending event: not a permutation of the trace"
  else if not permutes then Unknown "plan is not a permutation of the trace"
  else
    (* The displaced window [lo, hi]: every index outside it is a fixed
       point of the permutation. *)
    let a = ref 0 in
    while !a < len && w.(!a) = base + !a do incr a done;
    if !a = len then
      Infeasible "the planned order replays the failing sequence"
    else
      let b = ref (len - 1) in
      while w.(!b) = base + !b do decr b done;
      let lo = base + !a and hi = base + !b in
      let pos i = if inside i then base + wpos.(i - base) else i in
      let kept_order =
        match (index_of ctx first.iid, index_of ctx second.iid) with
        | Some fi, Some si -> pos fi < pos si
        | _ -> false
      in
      let pi = Lazy.force ctx.proof in
      (* Lock consistency of the permuted order: enforcement must never
         block, or the plan policy diverges from the plan. *)
      let held = flags pi.nlocks in
      let rec lock_issue p =
        if p = n then None
        else
          let i = if inside p then w.(p - base) else p in
          let op = pi.lock.(i) in
          if op > 0 && mem held (op - 1) then
            Some
              (Fmt.str "planned order blocks on lock %s at %a"
                 (Option.fold ~none:"" ~some:fst events.(i).lock_op)
                 Iid.pp events.(i).iid)
          else (
            if op <> 0 then flag held (abs op - 1) (op > 0);
            lock_issue (p + 1))
      in
      match lock_issue 0 with
      | Some r -> Unknown r
      | None -> (
        (* Reordered conflicting pairs.  Both ends of an inverted pair lie
           in the displaced window, so the scan meets each window access
           against the earlier ones of the locations it overlaps.  A pair
           on the slice means the failure-relevant memory order changed:
           execute.  Off the slice, the read ends seed the taint walk and
           write-against-write reorders dirty their location (a later
           read of it sees the other writer). *)
        let seeds = flags (hi - lo + 1) in
        let dirty = flags (Bytes.length pi.on_slice) in
        let seeded = ref false in
        let seen = Array.make (Bytes.length pi.on_slice) [] in
        let slice_hit = ref None in
        let meet j (b : Ksim.Access.t) i =
          match events.(i).access with
          | Some a when pos j < pos i && Ksim.Access.conflicting a b ->
            if mem pi.on_slice pi.loc.(i) || mem pi.on_slice pi.loc.(j) then (
              if !slice_hit = None then
                slice_hit :=
                  Some
                    (Fmt.str "reorders %a against %a on the failure slice"
                       Addr.pp a.addr Addr.pp b.addr))
            else (
              seeded := true;
              if a.kind <> I.Write && b.kind <> I.Read then
                flag seeds (i - lo) true;
              if b.kind <> I.Write && a.kind <> I.Read then
                flag seeds (j - lo) true;
              if a.kind <> I.Read && b.kind <> I.Read then (
                flag dirty pi.loc.(i) true;
                flag dirty pi.loc.(j) true))
          | _ -> ()
        in
        for j = lo to hi do
          match events.(j).access with
          | None -> ()
          | Some b ->
            let l = pi.loc.(j) in
            Array.iter
              (fun l' -> List.iter (meet j b) seen.(l'))
              pi.overlap.(l);
            seen.(l) <- j :: seen.(l)
        done;
        match !slice_hit with
        | Some r -> Unknown r
        | None ->
          (* Forward taint from the reordered reads: where can the
             changed values flow?  The walk starts at the window: the
             prefix before it runs identically in the flipped run.
             Register taint is recomputed per pass; the dirty location
             set grows monotonically.  With nothing seeded or dirtied
             there is nothing to walk. *)
          let taint = flags pi.nregs in
          let bail = ref None in
          let pass () =
            Bytes.fill taint 0 pi.nregs '\000';
            let grew = ref false in
            let k = ref lo in
            while !bail = None && !k < n do
              let i = !k in
              let l = pi.loc.(i) and d = pi.def.(i) in
              let reads_dirty =
                (i <= hi && mem seeds (i - lo))
                ||
                match events.(i).access with
                | Some a when a.kind <> I.Write -> any dirty pi.overlap.(l)
                | _ -> false
              in
              let tv = any taint pi.vreg.(i) in
              let sink =
                if any taint pi.areg.(i) then
                  Some "tainted address computation"
                else
                  match events.(i).instr with
                  | I.Assign _ -> define taint d tv
                  | I.Load _ | I.List_empty _ | I.List_first _ ->
                    define taint d reads_dirty
                  | I.Store _ | I.List_add _ | I.List_del _ ->
                    if tv then add_dirty dirty grew l;
                    None
                  | I.Rmw _ | I.Ref_get _ | I.Ref_put _ ->
                    if tv || reads_dirty then add_dirty dirty grew l;
                    define taint d reads_dirty
                  | I.List_contains _ -> define taint d (reads_dirty || tv)
                  | I.Branch_if _ -> sink_if tv "tainted branch condition"
                  | I.Bug_on _ | I.Warn_on _ ->
                    sink_if tv "tainted failure predicate"
                  | I.Free _ -> sink_if tv "tainted free target"
                  | I.Alloc _ ->
                    if tv then Some "tainted allocation"
                    else define taint d false
                  | I.Queue_work _ | I.Call_rcu _ | I.Arm_timer _
                  | I.Enable_irq _ ->
                    sink_if tv "tainted spawn argument"
                  | I.Goto _ | I.Return | I.Nop | I.Lock _ | I.Unlock _ ->
                    None
              in
              if sink <> None then bail := sink;
              incr k
            done;
            !grew
          in
          let rec fix () = if pass () && !bail = None then fix () in
          if !seeded then fix ();
          let rec reaches l =
            l < Bytes.length dirty
            && ((mem dirty l && mem pi.on_slice l) || reaches (l + 1))
          in
          match !bail with
          | Some r -> Unknown r
          | None ->
            if reaches 0 then Unknown "value impact reaches the failure slice"
            else if kept_order then
              Infeasible "spawn prerequisites keep the pair in program order"
            else
              Preserves_failure
                "the reordered accesses are independent of the failure's \
                 control/data slice")
