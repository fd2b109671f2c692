(* The error-invariant engine (after Holzer et al., "Error Invariants
   for Concurrent Traces").

   Causality Analysis re-executes the failing sequence once per race
   with the racing pair flipped; the Benign verdict covers every
   non-completing outcome.  Flip-feasibility proofs (see Flipfeas)
   already discharge flips whose re-run provably replays or preserves
   the failure; this engine discharges whole {e families} of the
   remaining flips by deriving, per schedule prefix, an invariant
   strong enough to show the flip cannot avert the failure:

   - the {e segment} rule proves it abstractly: when the flip plan is a
     per-thread-order-preserving, lock-consistent permutation whose
     displaced window touches only global locations outside the
     failure-relevance closure ({!Absdom}), the machine states at the
     window boundaries agree on every relevant location, so every
     thread executes the same instruction sequence and the failure
     predicate evaluates identically;

   - the {e replay} rule derives the invariant in the strongest domain
     available — the concrete machine state itself.  It re-derives the
     flip's outcome by driving a pure {!Ksim.Machine} under an exact
     mirror of the hypervisor's plan-enforcement policy (the machine is
     deterministic, so the mirrored verdict {e is} the VM's verdict)
     and samples state fingerprints along the prefix as the invariant
     chain.  A non-completing verdict proves the flip Benign without a
     VM run; a completing one means the flip is a root cause and must
     execute.

   Both rules emit checkable certificates in the Flipfeas proof shape
   (a reason string plus enough evidence to re-derive the proof), and
   identical plans share one certificate through the family cache —
   the wholesale "flip family" discharge of the paper's technique. *)

module Iid = Ksim.Access.Iid
module I = Ksim.Instr

type rule = Family | Segment | Replay

let rule_name = function
  | Family -> "family"
  | Segment -> "segment"
  | Replay -> "replay"

type certificate = {
  cert_key : string;  (* race key the proof was first derived for *)
  cert_rule : rule;
  cert_failure : string;  (* predicted verdict class of the re-run *)
  cert_steps : int;  (* replay length; 0 for segment proofs *)
  cert_window : (int * int) option;  (* displaced trace-index window *)
  cert_displaced : string list;  (* displaced abstract locations *)
  cert_fingerprints : string list;  (* sampled machine-state digests *)
}

let pp_certificate ppf c =
  Fmt.pf ppf "%s proof for %s: %s (%d step(s)%a%a, %d fingerprint(s))"
    (rule_name c.cert_rule) c.cert_key c.cert_failure c.cert_steps
    (Fmt.option (fun ppf (lo, hi) -> Fmt.pf ppf ", window [%d,%d]" lo hi))
    c.cert_window
    (fun ppf -> function
      | [] -> ()
      | locs ->
        Fmt.pf ppf ", displaced %a" (Fmt.list ~sep:Fmt.comma Fmt.string) locs)
    c.cert_displaced
    (List.length c.cert_fingerprints)

type engine = {
  group : Ksim.Program.group;
  prologue : int list;
  max_steps : int;
  rel : Absdom.t;
  (* Plan key -> shared proof (None: no proof, the flip executes). *)
  families : (string, (string * certificate) option) Hashtbl.t;
  mutable derivations : int;  (* proofs derived (family hits excluded) *)
  mutable replays : int;  (* replay-rule machine re-derivations *)
}

let default_max_steps = 200_000

let create ?(max_steps = default_max_steps) ?(prologue = [])
    (group : Ksim.Program.group) : engine =
  { group;
    prologue;
    max_steps;
    rel = Absdom.of_group group;
    families = Hashtbl.create 64;
    derivations = 0;
    replays = 0 }

let relevance e = e.rel

(* The families-table key of a plan: its iids in order.  Each iid's
   encoding is self-delimiting, so distinct plans never share a key. *)
let plan_key (plan : Iid.t list) =
  let b = Buffer.create 256 in
  List.iter (Ksim.Key.iid b) plan;
  Buffer.contents b

(* --- the replay rule: an exact mirror of plan enforcement ------------- *)

(* The policy below reproduces Hypervisor.Schedule.plan_policy verbatim
   (match the planned event, run through divergence on a bounded
   budget, run lock holders when the planned thread blocks, drop
   unreachable events), and the loop reproduces the controller's
   verdict logic.  Executor.run_plan drives exactly this pair over
   [Ksim.Machine.create group] when no faults are armed, so machine
   determinism makes the mirrored verdict equal to the VM's. *)

type verdict_mirror =
  | M_completed
  | M_failed of Ksim.Failure.t
  | M_deadlock
  | M_step_limit

let mirror_verdict_name = function
  | M_completed -> "completed"
  | M_failed f -> "failed: " ^ Ksim.Failure.symptom f
  | M_deadlock -> "deadlock"
  | M_step_limit -> "step-limit"

let plan_policy_mirror (events : Iid.t list) ~(budget : int) :
    Ksim.Machine.t -> int list -> int option =
  let remaining = ref events in
  let budget_left = ref budget in
  fun m runnable ->
    let rec decide () =
      match !remaining with
      | [] -> ( match runnable with [] -> None | t :: _ -> Some t)
      | ev :: rest -> (
        let tid = ev.Iid.tid in
        let drop () =
          remaining := rest;
          budget_left := budget;
          decide ()
        in
        if not (Ksim.Machine.has_thread m tid) then drop ()
        else
          match Ksim.Machine.next_label m tid with
          | None -> drop ()
          | Some next ->
            if List.mem tid runnable then (
              let next_occ = Ksim.Machine.occurrences m tid next + 1 in
              if String.equal next ev.Iid.label && next_occ = ev.Iid.occ
              then (
                remaining := rest;
                budget_left := budget;
                Some tid)
              else if !budget_left > 0 then (
                decr budget_left;
                Some tid)
              else drop ())
            else
              match Ksim.Machine.blocked_on m tid with
              | Some lock -> (
                match Ksim.Machine.lock_holder m lock with
                | Some holder when List.mem holder runnable -> Some holder
                | Some _ | None -> None)
              | None -> drop ())
    in
    decide ()

let with_prologue_mirror (prologue : int list) policy m runnable =
  let rec pick = function
    | [] -> policy m runnable
    | tid :: rest ->
      if Ksim.Machine.is_done m tid then pick rest
      else if List.mem tid runnable then Some tid
      else None
  in
  pick prologue

(* Drive the machine to a verdict, retaining the machines produced so
   the invariant chain can be sampled afterwards. *)
let replay (e : engine) ~(plan : Iid.t list) ~(run_through_budget : int) :
    verdict_mirror * int * string list =
  e.replays <- e.replays + 1;
  Telemetry.Probe.count "analysis.invariant_replays";
  let policy =
    with_prologue_mirror e.prologue
      (plan_policy_mirror plan ~budget:run_through_budget)
  in
  let states = ref [] in
  (* newest first *)
  let finish verdict m steps =
    let n = List.length !states in
    let arr = Array.make (n + 1) m in
    List.iteri (fun i s -> arr.(n - 1 - i) <- s) !states;
    arr.(n) <- m;
    let sample =
      List.sort_uniq compare [ 0; n / 4; n / 2; 3 * n / 4; n ]
    in
    let fps = List.map (fun i -> Ksim.Machine.fingerprint arr.(i)) sample in
    (verdict, steps, fps)
  in
  let rec loop m steps =
    if steps >= e.max_steps then finish M_step_limit m steps
    else
      match Ksim.Machine.failed m with
      | Some f -> finish (M_failed f) m steps
      | None -> (
        match Ksim.Machine.runnable m with
        | [] ->
          let m = Ksim.Machine.check_leaks m in
          (match Ksim.Machine.failed m with
          | Some f -> finish (M_failed f) m steps
          | None ->
            if Ksim.Machine.all_done m then finish M_completed m steps
            else finish M_deadlock m steps)
        | runnable -> (
          match policy m runnable with
          | None ->
            let m = Ksim.Machine.check_leaks m in
            (match Ksim.Machine.failed m with
            | Some f -> finish (M_failed f) m steps
            | None ->
              if Ksim.Machine.all_done m then finish M_completed m steps
              else finish M_deadlock m steps)
          | Some tid -> (
            match Ksim.Machine.step m tid with
            | Ok (m', _ev) ->
              states := m :: !states;
              loop m' (steps + 1)
            | Error (Ksim.Machine.Blocked_on_lock _)
            | Error Ksim.Machine.Thread_not_runnable ->
              finish M_deadlock m steps
            | Error Ksim.Machine.Machine_failed -> (
              match Ksim.Machine.failed m with
              | Some f -> finish (M_failed f) m steps
              | None -> assert false))))
  in
  loop (Ksim.Machine.create e.group) 0

(* --- the segment rule -------------------------------------------------- *)

(* A displaced window confined to irrelevant globals.  Requirements for
   the abstract proof (anything missing falls through to the replay
   rule): the plan is a duplicate-free permutation of the trace that
   preserves every thread's own order, it is lock-consistent (the
   enforcement never blocks), no displaced event spawns a thread, and
   every displaced access targets a global location outside the
   relevance closure (globals alias only themselves, so the
   abstraction is exact there; heap locations go to the replay rule,
   where object lifetime is tracked concretely). *)
let segment (e : engine) ~(ctx : Flipfeas.ctx) ~(plan : Iid.t list) :
    (string * (int * int) option * string list) option =
  let events = Flipfeas.events ctx in
  let n = Array.length events in
  let plan_arr = Array.of_list plan in
  if n = 0 || Array.length plan_arr <> n then None
  else
    (* Plan position per trace index, trace index per plan position. *)
    let pos = Array.make n (-1) in
    let at = Array.make n (-1) in
    let ok = ref true in
    Array.iteri
      (fun p iid ->
        match Flipfeas.index_of ctx iid with
        | Some i when pos.(i) < 0 ->
          pos.(i) <- p;
          at.(p) <- i
        | Some _ | None -> ok := false)
      plan_arr;
    if not !ok then None
    else
      (* Per-thread program order must survive the permutation. *)
      let thread_order_kept =
        let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
        Array.for_all
          (fun i ->
            let tid = events.(i).Ksim.Machine.iid.Iid.tid in
            let ok =
              match Hashtbl.find_opt last tid with
              | Some prev -> prev < i
              | None -> true
            in
            Hashtbl.replace last tid i;
            ok)
          at
      in
      if not thread_order_kept then None
      else
        let lock_ok =
          let holders : (string, unit) Hashtbl.t = Hashtbl.create 4 in
          Array.for_all
            (fun i ->
              match events.(i).Ksim.Machine.lock_op with
              | Some (l, `Acquire) ->
                if Hashtbl.mem holders l then false
                else (
                  Hashtbl.replace holders l ();
                  true)
              | Some (l, `Release) ->
                Hashtbl.remove holders l;
                true
              | None -> true)
            at
        in
        if not lock_ok then None
        else
          let displaced = ref [] in
          Array.iteri
            (fun i p -> if p <> i then displaced := i :: !displaced)
            pos;
          match !displaced with
          | [] ->
            Some
              ( "empty displaced window: the plan replays the failing \
                 sequence",
                None,
                [] )
          | d ->
            let lo = List.fold_left min n d
            and hi = List.fold_left max (-1) d in
            let ok = ref true in
            let locs = ref [] in
            List.iter
              (fun i ->
                let ev = events.(i) in
                if ev.Ksim.Machine.spawned <> [] then ok := false;
                match ev.Ksim.Machine.access with
                | None -> ()
                | Some a -> (
                  match Absdom.abstract a.Ksim.Access.addr with
                  | Absaddr.Global _ as g ->
                    if Absdom.mem_abs e.rel g then ok := false
                    else if
                      not (List.mem (Absaddr.to_string g) !locs)
                    then locs := Absaddr.to_string g :: !locs
                  | Absaddr.Field _ | Absaddr.Slot | Absaddr.Whole ->
                    ok := false))
              d;
            if not !ok then None
            else
              Some
                ( Fmt.str
                    "displaced window [%d,%d] touches only \
                     failure-irrelevant globals"
                    lo hi,
                  Some (lo, hi),
                  List.sort String.compare !locs )

(* --- the prune cascade ------------------------------------------------- *)

let derive (e : engine) ~(key : string) ~(ctx : Flipfeas.ctx)
    ~(plan : Iid.t list) ~(run_through_budget : int) :
    (string * certificate) option =
  e.derivations <- e.derivations + 1;
  match segment e ~ctx ~plan with
  | Some (why, window, displaced) ->
    Some
      ( "invariant segment: " ^ why,
        { cert_key = key;
          cert_rule = Segment;
          cert_failure = "failed (state invariant preserved)";
          cert_steps = 0;
          cert_window = window;
          cert_displaced = displaced;
          cert_fingerprints = [] } )
  | None -> (
    let verdict, steps, fps = replay e ~plan ~run_through_budget in
    let cert rule why =
      ( why,
        { cert_key = key;
          cert_rule = rule;
          cert_failure = mirror_verdict_name verdict;
          cert_steps = steps;
          cert_window = None;
          cert_displaced = [];
          cert_fingerprints = fps } )
    in
    match verdict with
    | M_completed -> None (* the flip averts the failure: execute it *)
    | M_failed f ->
      Some
        (cert Replay
           (Fmt.str "invariant replay: the enforced order still fails (%s)"
              (Ksim.Failure.symptom f)))
    | M_deadlock ->
      Some (cert Replay "invariant replay: the enforced order deadlocks")
    | M_step_limit ->
      Some
        (cert Replay
           "invariant replay: the enforced order diverges (step limit)"))

let prune (e : engine) ~(key : string) ~(ctx : Flipfeas.ctx)
    ~(plan : Iid.t list) ~(run_through_budget : int) :
    (string * certificate) option =
  Telemetry.Probe.count "analysis.invariant_queries";
  let pk = plan_key plan in
  match Hashtbl.find_opt e.families pk with
  | Some cached ->
    Telemetry.Probe.count "analysis.invariant_family_hits";
    Option.map
      (fun (why, c) ->
        if String.equal c.cert_key key then (why, c)
        else ("invariant family: shares the proof of " ^ c.cert_key, c))
      cached
  | None ->
    let res = derive e ~key ~ctx ~plan ~run_through_budget in
    Hashtbl.replace e.families pk res;
    res

(* Re-derive a certificate from scratch and compare the evidence: the
   rule, the predicted verdict class, the replay length, the window and
   the sampled state fingerprints must all reproduce. *)
let check (e : engine) ~(ctx : Flipfeas.ctx) ~(plan : Iid.t list)
    ~(run_through_budget : int) (c : certificate) : bool =
  match derive e ~key:c.cert_key ~ctx ~plan ~run_through_budget with
  | None -> false
  | Some (_, c') ->
    (match (c.cert_rule, c'.cert_rule) with
    | Family, _ | _, Family -> true (* family shares another rule's proof *)
    | a, b -> a = b)
    && String.equal c.cert_failure c'.cert_failure
    && c.cert_steps = c'.cert_steps
    && c.cert_window = c'.cert_window
    && c.cert_displaced = c'.cert_displaced
    && c.cert_fingerprints = c'.cert_fingerprints

(* --- invariant-derived lint: redundant critical sections --------------- *)

(* A lock acquisition is redundant (w.r.t. the failure predicate) when
   its critical section provably guards nothing relevant: every
   instruction inside is straight-line, spawns nothing, frees nothing,
   asserts nothing and touches only locations outside the relevance
   closure.  Reported by `aitia lint` as advisory findings with the
   witness segment. *)

type redundant = {
  red_thread : string;  (* thread spec / entry name *)
  red_lock : string;
  red_start : string;  (* label of the Lock *)
  red_stop : string;  (* label of the matching Unlock *)
  red_body : int;  (* instructions inside the section *)
}

let pp_redundant ppf r =
  Fmt.pf ppf "%s: lock %s section %s..%s (%d instr(s))" r.red_thread
    r.red_lock r.red_start r.red_stop r.red_body

let section_irrelevant rel (instrs : Ksim.Program.labeled list) =
  List.for_all
    (fun (l : Ksim.Program.labeled) ->
      match l.instr with
      | I.Branch_if _ | I.Goto _ | I.Return | I.Lock _ | I.Unlock _
      | I.Free _ | I.Queue_work _ | I.Call_rcu _ | I.Arm_timer _
      | I.Enable_irq _ | I.Bug_on _ | I.Warn_on _ -> false
      | I.Nop | I.Assign _ | I.Alloc _ -> true
      | I.Load _ | I.Store _ | I.Rmw _ | I.List_add _ | I.List_del _
      | I.List_contains _ | I.List_empty _ | I.List_first _ | I.Ref_get _
      | I.Ref_put _ -> (
        match Absaddr.of_instr l.instr with
        | None -> true
        | Some (a, _) -> not (Absdom.mem_abs rel a)))
    instrs

let redundant_in_program rel ~thread (p : Ksim.Program.t) =
  let out = ref [] in
  let n = Ksim.Program.length p in
  for i = 0 to n - 1 do
    match (Ksim.Program.get p i).instr with
    | I.Lock l ->
      let rec find_unlock j body =
        if j >= n then None
        else
          let lj = Ksim.Program.get p j in
          match lj.instr with
          | I.Unlock l' when String.equal l l' -> Some (lj, List.rev body)
          | _ -> find_unlock (j + 1) (lj :: body)
      in
      (match find_unlock (i + 1) [] with
      | Some (unlock, body) when section_irrelevant rel body ->
        out :=
          { red_thread = thread;
            red_lock = l;
            red_start = (Ksim.Program.get p i).label;
            red_stop = unlock.label;
            red_body = List.length body }
          :: !out
      | _ -> ())
    | _ -> ()
  done;
  List.rev !out

let redundant_sections ?relevance (group : Ksim.Program.group) :
    redundant list =
  let rel =
    match relevance with Some r -> r | None -> Absdom.of_group group
  in
  List.concat_map
    (fun (s : Ksim.Program.thread_spec) ->
      redundant_in_program rel ~thread:s.spec_name s.program)
    group.Ksim.Program.threads
  @ List.concat_map
      (fun (name, p) -> redundant_in_program rel ~thread:name p)
      group.Ksim.Program.entries
