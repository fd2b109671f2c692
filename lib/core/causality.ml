(* Causality Analysis (§3.4).

   From the failure-causing instruction sequence, initialize the test set
   with its data races.  Pop races from the back (last second-access
   first), flip each one while keeping the other orders, and re-execute:

   - if the kernel no longer fails, the race contributed to the failure
     and joins the root cause set;
   - if it still fails, the race is benign and is excluded.

   A flip of a root-cause race that makes another root-cause race
   disappear (race-steered control flow) establishes a causality edge
   between them.  Critical sections are flipped as units (liveness), and
   a race that surrounds a nested root-cause race is reported ambiguous
   because its flip cannot preserve the nested order (Figure 7).

   Every flip goes through one function, in test order: a journaled
   verdict is replayed, a statically pruned one recorded, any other
   flip run on the analysis VM, and each verdict not replayed is
   checkpointed before the next flip is picked, whether the order is
   fixed or the gain scheduler picks the flips one at a time. *)

module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule
module Controller = Hypervisor.Controller

let src = Logs.Src.create "aitia.causality" ~doc:"Causality Analysis"

module Log = (val Logs.src_log src : Logs.LOG)

type verdict = Root_cause | Benign

type tested = {
  race : Race.t;
  verdict : verdict;
  (* [None] when the flip was statically pruned: no re-run exists. *)
  flip_outcome : Controller.outcome option;
  (* The static proof that skipped the re-run (flip-feasibility
     pre-analysis); [None] for flips that executed. *)
  pruned : string option;
  (* test-set races absent from the (surviving) flipped run. *)
  disappeared : Race.t list;
  ambiguous : bool;
  (* Did the flipped order actually execute?  A vacuous flip (an
     endpoint erased by a race-steered control flow before it could run)
     is the anomaly backward testing minimizes.  False for statically
     pruned flips, which never run. *)
  enforced : bool;
  (* Resilience confidence of the verdict: 1.0 normally, the quorum
     vote share when fault-injected re-runs disagreed, 0.0 when the
     retry budget was exhausted and the verdict is best-effort. *)
  confidence : float;
}

type stats = {
  schedules : int;
  flips_statically_pruned : int;
  gain_reorderings : int;  (* times the gain scheduler picked a flip
                              out of base (backward) order *)
  simulated : float;
  executed_instrs : int;  (* instructions executed *)
}

(* The identity for [stats_base] (resumed analyses add the journaled
   progress of the interrupted run here). *)
let zero_stats =
  { schedules = 0; flips_statically_pruned = 0; gain_reorderings = 0;
    simulated = 0.; executed_instrs = 0 }

type prune = [ `None | `Invariants ]
type order = [ `Fixed | `Gain ]

let prune_names = [ ("none", `None); ("invariants", `Invariants) ]
let order_names = [ ("backward", `Fixed); ("gain", `Gain) ]

type result = {
  tested : tested list;          (* in testing order *)
  root_causes : Race.t list;     (* in trace order (second access asc.) *)
  benign : Race.t list;
  edges : (Race.t * Race.t) list;  (* r1 -> r2: flipping r1 removes r2 *)
  ambiguous : Race.t list;
  stats : stats;
}

(* --- critical sections ------------------------------------------------ *)

type section = {
  cs_tid : int;
  cs_lock : string;
  cs_start : int;           (* trace index of the Lock event *)
  cs_stop : int option;     (* trace index of the Unlock event *)
}

let critical_sections (ctx : Analysis.Flipfeas.ctx) : section list =
  let open_cs : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  Array.iteri
    (fun i (e : Ksim.Machine.event) ->
      match e.lock_op with
      | Some (l, `Acquire) -> Hashtbl.replace open_cs (e.iid.Iid.tid, l) i
      | Some (l, `Release) -> (
        match Hashtbl.find_opt open_cs (e.iid.Iid.tid, l) with
        | Some start ->
          Hashtbl.remove open_cs (e.iid.Iid.tid, l);
          out :=
            { cs_tid = e.iid.Iid.tid; cs_lock = l; cs_start = start;
              cs_stop = Some i }
            :: !out
        | None -> ())
      | None -> ())
    (Analysis.Flipfeas.events ctx);
  Hashtbl.iter
    (fun (tid, l) start ->
      out := { cs_tid = tid; cs_lock = l; cs_start = start; cs_stop = None }
             :: !out)
    open_cs;
  !out

let section_containing sections ~tid ~index =
  List.find_opt
    (fun s ->
      s.cs_tid = tid && s.cs_start <= index
      && match s.cs_stop with Some e -> index <= e | None -> true)
    sections

(* --- flip-plan construction ------------------------------------------- *)

(* Build the diagnosis schedule enforcing [r.second] before [r.first]
   while preserving the rest of the failing sequence.  When both
   endpoints sit in critical sections of the same lock, the sections are
   flipped as units.  For a pending race (second never executed because
   the failure halted the machine) the second instruction is inserted
   before the first; run-through in the plan policy walks its thread to
   that instruction. *)
let flip_plan (ctx : Analysis.Flipfeas.ctx) (r : Race.t) : Schedule.plan =
  let events = Analysis.Flipfeas.events ctx in
  let arr = Array.map (fun (e : Ksim.Machine.event) -> e.iid) events in
  let n = Array.length arr in
  let u = r.second.iid.Iid.tid in
  let i0 = Analysis.Flipfeas.index_of ctx r.first.iid in
  let j0 = Analysis.Flipfeas.index_of ctx r.second.iid in
  match i0 with
  | None ->
    (* First endpoint not in trace: nothing to reorder. *)
    Schedule.plan (Array.to_list arr)
  | Some i -> (
    match j0 with
    | None ->
      (* Pending second: insert it just before the first endpoint — or,
         when the first endpoint sits inside a critical section, before
         that section's lock, so the whole section is displaced as a
         unit (the pending thread may need the same lock). *)
      let i =
        match
          section_containing (critical_sections ctx)
            ~tid:r.first.iid.Iid.tid ~index:i
        with
        | Some cs -> cs.cs_start
        | None -> i
      in
      let before = Array.to_list (Array.sub arr 0 i) in
      let after = Array.to_list (Array.sub arr i (n - i)) in
      Schedule.plan (before @ (r.second.iid :: after))
    | Some j when j <= i ->
      Schedule.plan (Array.to_list arr) (* already flipped *)
    | Some j ->
      (* Critical-section unit adjustment. *)
      let sections = critical_sections ctx in
      let t = r.first.iid.Iid.tid in
      let i, j =
        match
          ( section_containing sections ~tid:t ~index:i,
            section_containing sections ~tid:u ~index:j )
        with
        | Some st, Some su when String.equal st.cs_lock su.cs_lock ->
          let i' = st.cs_start in
          let j' = Option.value ~default:j su.cs_stop in
          (i', j')
        | _ -> (i, j)
      in
      let before = Array.to_list (Array.sub arr 0 i) in
      let after = Array.to_list (Array.sub arr (j + 1) (n - j - 1)) in
      (* Hoist [u]'s window events ahead of [first], together with their
         spawn prerequisites: if [u] (or a hoisted thread) was spawned by
         a queue_work/call_rcu/arm_timer instruction inside the window,
         that instruction — and its thread's preceding window events —
         must be hoisted too, or the enforcement could never run [u]. *)
      let len = j - i + 1 in
      let wevent k = events.(i + k) in
      let hoist = Array.make len false in
      for k = 0 to len - 1 do
        if (wevent k).Ksim.Machine.iid.Iid.tid = u then hoist.(k) <- true
      done;
      let changed = ref true in
      while !changed do
        changed := false;
        for k = 0 to len - 1 do
          if hoist.(k) then (
            let t = (wevent k).Ksim.Machine.iid.Iid.tid in
            for m = 0 to len - 1 do
              if
                (not hoist.(m))
                && List.exists
                     (fun (tid', _) -> tid' = t)
                     (wevent m).Ksim.Machine.spawned
              then (
                let w = (wevent m).Ksim.Machine.iid.Iid.tid in
                for p = 0 to m do
                  if
                    (not hoist.(p))
                    && (wevent p).Ksim.Machine.iid.Iid.tid = w
                  then (
                    hoist.(p) <- true;
                    changed := true)
                done)
            done)
        done
      done;
      let u_events = ref [] and others = ref [] in
      for k = len - 1 downto 0 do
        let iid = (wevent k).Ksim.Machine.iid in
        if hoist.(k) then u_events := iid :: !u_events
        else others := iid :: !others
      done;
      Schedule.plan (before @ !u_events @ !others @ after))

(* --- test ordering ----------------------------------------------------- *)

(* Backward from the failure (latest second access first), except that a
   nested race is always tested before a race that surrounds it.  The
   forward direction exists only for the ablation study: testing from
   the front makes flips meet race-steered control flows that erase
   later instructions (§3.4). *)
let test_order ?(direction = `Backward) (races : Race.t list) : Race.t list =
  let cmp a b =
    if Race.surrounds a b then 1        (* a surrounds b: b first *)
    else if Race.surrounds b a then -1
    else
      match direction with
      | `Backward -> Int.compare b.Race.second.time a.Race.second.time
      | `Forward -> Int.compare a.Race.second.time b.Race.second.time
  in
  List.stable_sort cmp races

(* --- the analysis ------------------------------------------------------ *)

let survived (o : Controller.outcome) =
  match o.verdict with
  | Controller.Completed -> true
  | Controller.Failed _ | Controller.Deadlock | Controller.Step_limit -> false

(* The static half of testing one race: the flip-feasibility proof,
   purely on the trace, under [`Invariants].  A proof makes the flip
   Benign without execution (the Benign verdict covers every
   non-completing outcome).  Depends only on the failing trace and the
   plan, never on other flips' outcomes.  [ctx] is the failing trace's
   shared context. *)
let static_proof ~(prune : prune) ~(ctx : Analysis.Flipfeas.ctx)
    (r : Race.t) (plan : Schedule.plan) : string option =
  match prune with
  | `None -> None
  | `Invariants ->
    Analysis.Flipfeas.prunable
      (Analysis.Flipfeas.analyze ctx ~plan:plan.Schedule.events
         ~first:r.first ~second:r.second)

let pruned_tested (r : Race.t) reason : tested =
  Log.debug (fun m ->
      m "flip %a -> statically pruned (%s)" Race.pp_short r reason);
  { race = r;
    verdict = Benign;
    flip_outcome = None;
    pruned = Some reason;
    disappeared = [];
    ambiguous = false;
    enforced = false;
    confidence = 1. }

(* The dynamic half: interpret the re-run of a flip. *)
let executed_tested ~(races : Race.t list) (r : Race.t) (run : Executor.run)
    : tested =
  let ok = survived run.outcome in
  let disappeared =
    if not ok then []
    else
      List.filter
        (fun r' ->
          (not (Race.equal r r'))
          && not (Race.occurred_in run.outcome.trace r'))
        races
  in
  let enforced =
    Race.occurred_in run.outcome.trace
      { Race.first = r.second; second = r.first }
  in
  Log.debug (fun m ->
      m "flip %a -> %s%s" Race.pp_short r
        (if ok then "no failure (root cause)"
         else "still fails (benign)")
        (if enforced then "" else " [vacuous]"));
  { race = r;
    verdict = (if ok then Root_cause else Benign);
    flip_outcome = Some run.outcome;
    pruned = None;
    disappeared;
    ambiguous = false;
    enforced;
    confidence = run.confidence }

let analyze ?max_steps ?(prologue = []) ?direction ?(prune = (`None : prune))
    ?(order = (`Fixed : order)) ?resilience
    ?replay ?checkpoint ?(stats_base = zero_stats) (vm : Hypervisor.Vm.t)
    ~(failing : Controller.outcome) ~(races : Race.t list) () : result =
  Telemetry.Probe.span_begin ~cat:"causality" "causality.analyze";
  let runs_before = Hypervisor.Vm.runs vm in
  let instrs_before = Hypervisor.Vm.executed_steps vm in
  (* Everything about the failing trace that no flip changes is built
     here once, and only read afterwards. *)
  let ctx = Analysis.Flipfeas.context failing.trace in
  let reorderings = ref 0 in
  (* Progress so far including the journaled base of an interrupted
     analysis; the pruned-flip counts are recomputed from the final
     tested list instead (adding the base would double-count replayed
     pruned flips). *)
  let current_stats () =
    { schedules = stats_base.schedules + (Hypervisor.Vm.runs vm - runs_before);
      flips_statically_pruned = 0;
      gain_reorderings = stats_base.gain_reorderings + !reorderings;
      simulated = stats_base.simulated +. Hypervisor.Vm.simulated_seconds vm;
      executed_instrs =
        stats_base.executed_instrs
        + (Hypervisor.Vm.executed_steps vm - instrs_before) }
  in
  let ordered = test_order ?direction races in
  (* One span per flip test, closed with the verdict (and the static
     proof when the re-run was pruned). *)
  let flip_args (t : tested) =
    [ ("race", Fmt.str "%a" Race.pp_short t.race);
      ("verdict",
       match t.verdict with
       | Root_cause -> "root-cause"
       | Benign -> "benign");
      ("pruned", Option.value ~default:"" t.pruned);
      ("enforced", if t.enforced then "true" else "false") ]
  in
  (* One flip, in test order: a journaled verdict is only counted; any
     other is decided by a flip-feasibility proof or by running the
     flip, closes its flip span and is checkpointed with the progress
     so far.  The running verdict counts feed the gain scheduler. *)
  let executed = ref 0 in
  let roots = ref 0 and benigns = ref 0 in
  let tested_rev = ref [] in
  let test r =
    let t =
      match Option.bind replay (fun lookup -> lookup r) with
      | Some t ->
        Telemetry.Probe.count "causality.flips_replayed";
        t
      | None ->
        let plan = flip_plan ctx r in
        let proof = static_proof ~prune ~ctx r plan in
        Telemetry.Probe.span_begin ~cat:"causality" "causality.flip";
        let t =
          match proof with
          | Some reason -> pruned_tested r reason
          | None ->
            incr executed;
            executed_tested ~races r
              (Executor.run_plan ?max_steps ~prologue ?resilience vm plan)
        in
        if Telemetry.Probe.installed () then
          Telemetry.Probe.span_end ~args:(flip_args t) ();
        (match checkpoint with
        | Some save -> save t (current_stats ())
        | None -> ());
        t
    in
    (match t.verdict with
    | Root_cause -> incr roots
    | Benign -> incr benigns);
    tested_rev := t :: !tested_rev
  in
  (match order with
  | `Fixed -> List.iter test ordered
  | `Gain ->
    (* Adaptive order: always flip the race whose verdict is least
       predictable.  Rank 0 (lifetime or write-write endpoints) races
       are the likeliest survivors; the running verdict counts feed
       the Beta posterior (pruned flips are proven Benign: they count
       as evidence), so a streak of benign verdicts drains the
       expected information of look-alike flips.  Nested races stay
       ahead of the races surrounding them (the ambiguity pass
       depends on it); ties fall back to the base backward order. *)
    let race_rank (r : Race.t) =
      let lifetime =
        match (r.first.addr, r.second.addr) with
        | Ksim.Addr.Whole _, _ | _, Ksim.Addr.Whole _ -> true
        | _ -> false
      in
      let ww =
        Ksim.Access.is_write r.first && Ksim.Access.is_write r.second
      in
      if lifetime || ww then 0 else 1
    in
    let rec loop remaining =
      match remaining with
      | [] -> ()
      | hd :: _ ->
        let eligible =
          List.filter
            (fun r ->
              not (List.exists (fun r' -> Race.surrounds r r') remaining))
            remaining
        in
        let eligible = if eligible = [] then remaining else eligible in
        let gain_of r =
          Analysis.Gain.flip_gain ~rank:(race_rank r) ~roots:!roots
            ~benigns:!benigns
        in
        let pick, _ =
          List.fold_left
            (fun (best, bg) r ->
              let g = gain_of r in
              if bg >= g then (best, bg) else (r, g))
            (List.hd eligible, gain_of (List.hd eligible))
            (List.tl eligible)
        in
        if not (Race.equal hd pick) then (
          incr reorderings;
          Telemetry.Probe.count "causality.gain_reorderings");
        test pick;
        loop (List.filter (fun r -> not (Race.equal r pick)) remaining)
    in
    loop ordered);
  let tested = List.rev !tested_rev in
  let root_tested =
    List.filter (fun t -> t.verdict = Root_cause) tested
  in
  let in_root r =
    List.exists (fun t -> Race.equal t.race r) root_tested
  in
  (* Ambiguity: a surrounding race whose nested race is also a root
     cause cannot be decided (its flip also flipped the nested one). *)
  let tested =
    List.map
      (fun t ->
        if t.verdict <> Root_cause then t
        else
          let amb =
            List.exists
              (fun t' ->
                t' != t && t'.verdict = Root_cause
                && Race.surrounds t.race t'.race)
              tested
          in
          { t with ambiguous = amb })
      tested
  in
  let root_causes =
    List.filter (fun t -> t.verdict = Root_cause) tested
    |> List.map (fun t -> t.race)
    |> List.sort (fun (a : Race.t) b ->
           Int.compare a.second.time b.second.time)
  in
  let benign =
    List.filter (fun t -> t.verdict = Benign) tested
    |> List.map (fun t -> t.race)
  in
  let edges =
    List.concat_map
      (fun t ->
        if t.verdict <> Root_cause then []
        else
          List.filter_map
            (fun r' ->
              if in_root r' && not (Race.equal t.race r') then
                Some (t.race, r')
              else None)
            t.disappeared)
      tested
  in
  let ambiguous =
    List.filter (fun (t : tested) -> t.ambiguous) tested
    |> List.map (fun t -> t.race)
  in
  let stats =
    { (current_stats ()) with
      flips_statically_pruned =
        List.length
          (List.filter (fun (t : tested) -> t.pruned <> None) tested) }
  in
  if Telemetry.Probe.installed () then (
    Telemetry.Probe.count ~by:(List.length tested) "causality.flips";
    Telemetry.Probe.count ~by:!executed "causality.flips_executed";
    Analysis.Summary.count_pruned ~by:stats.flips_statically_pruned
      `Ca_static;
    Telemetry.Probe.count ~by:(List.length root_causes)
      "causality.root_causes";
    Telemetry.Probe.count ~by:(List.length benign) "causality.benign_races";
    Telemetry.Probe.span_end
      ~args:
        [ ("flips", string_of_int (List.length tested));
          ("root_causes", string_of_int (List.length root_causes));
          ("schedules", string_of_int stats.schedules) ]
      ());
  { tested; root_causes; benign; edges; ambiguous; stats }
