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
     available — the concrete machine state itself.  It re-runs the
     flip under the hypervisor's own plan policy and controller loop on
     a fresh machine of the VM's engine, which is what the executor
     does for a fault-free VM (the machine is deterministic, so the
     replayed verdict {e is} the VM's verdict), and samples state
     fingerprints along the prefix as the invariant chain.  A
     non-completing verdict proves the flip Benign without a VM run; a
     completing one means the flip is a root cause and must execute.

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
  kind : Ksim.Engine.kind;
  group : Ksim.Program.group;
  prologue : int list;
  max_steps : int option;
  rel : Absdom.t;
  (* Plan key -> shared proof (None: no proof, the flip executes). *)
  families : (string, (string * certificate) option) Hashtbl.t;
}

let create ?max_steps ?(prologue = []) ~engine:kind
    (group : Ksim.Program.group) : engine =
  { kind;
    group;
    prologue;
    max_steps;
    rel = Absdom.of_group group;
    families = Hashtbl.create 64 }

let relevance e = e.rel

(* The families-table key of a plan: its iids in order.  Each iid's
   encoding is self-delimiting, so distinct plans never share a key. *)
let plan_key (plan : Iid.t list) =
  let b = Buffer.create 256 in
  List.iter (Ksim.Key.iid b) plan;
  Buffer.contents b

(* --- the replay rule: the real plan enforcement ------------------------ *)

(* Drive the flip plan exactly as Executor.run_plan does on a fault-free
   VM: the hypervisor's plan policy behind its prologue wrapper, under
   the controller loop, on a fresh machine of the VM's engine.  Every
   machine the run produces is kept so the invariant chain can be
   sampled afterwards; compiled handles behind the tip stay readable (a
   read clones the arena and rewinds it), so nothing is copied per
   step.  The last sample is the settled, leak-checked final machine. *)
let replay (e : engine) ~(plan : Iid.t list) ~(run_through_budget : int) :
    Hypervisor.Controller.verdict * int * string list =
  Telemetry.Probe.count "analysis.invariant_replays";
  let module S = Hypervisor.Schedule in
  let policy =
    S.with_prologue e.prologue
      (S.plan_policy (S.plan ~run_through_budget plan))
  in
  let m0 = Ksim.Engine.boot e.kind e.group in
  let states = ref [ m0 ] in
  (* newest first *)
  let observe m _ _ = states := m :: !states in
  let o =
    Hypervisor.Controller.run ?max_steps:e.max_steps ~observe m0 policy
  in
  let arr = Array.of_list (List.rev (o.final :: List.tl !states)) in
  let n = Array.length arr - 1 in
  let sample = List.sort_uniq compare [ 0; n / 4; n / 2; 3 * n / 4; n ] in
  let fps = List.map (fun i -> Ksim.Engine.fingerprint arr.(i)) sample in
  (o.verdict, o.steps, fps)

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
    let cert failure why =
      Some
        ( why,
          { cert_key = key;
            cert_rule = Replay;
            cert_failure = failure;
            cert_steps = steps;
            cert_window = None;
            cert_displaced = [];
            cert_fingerprints = fps } )
    in
    match verdict with
    | Hypervisor.Controller.Completed ->
      None (* the flip averts the failure: execute it *)
    | Failed f ->
      let symptom = Ksim.Failure.symptom f in
      cert ("failed: " ^ symptom)
        ("invariant replay: the enforced order still fails (" ^ symptom
       ^ ")")
    | Deadlock -> cert "deadlock" "invariant replay: the enforced order deadlocks"
    | Step_limit ->
      cert "step-limit"
        "invariant replay: the enforced order diverges (step limit)")

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
