(* The AITIA manager (§4.1): modeling -> reproducing -> diagnosing.

   Input: a case — the kernel program group (our guest image), the ftrace
   execution history, and the crash report.  The manager slices the
   history backward from the failure, realizes each slice as a guest
   workload, runs LIFS until the failure is reproduced, then runs
   Causality Analysis and assembles the causality chain.

   Two orthogonal robustness layers ride on top of the pipeline:

   - {e fault injection / resilience}: when the case's VMs carry a
     [Hypervisor.Faults] harness, every execution goes through the
     resilient executor (retry with backoff, quorum confirmation), and
     the report says whether any decision was accepted degraded;

   - {e the diagnosis journal}: with [journal], per-slice and per-flip
     progress is checkpointed to disk as it happens, and a rerun over
     the same journal replays recorded results instead of re-executing
     them — finished slices are skipped, the reproducing schedule is
     re-run once to rebuild the machine state the flips permute, and
     journaled flip verdicts feed Causality Analysis directly. *)

let src = Logs.Src.create "aitia.diagnose" ~doc:"The AITIA manager"

module Log = (val Logs.src_log src : Logs.LOG)

type case = {
  case_name : string;
  subsystem : string;
  group : Ksim.Program.group;     (* all modeled threads (the guest) *)
  history : Trace.History.t;
}

type metrics = {
  mem_accessing_instrs : int;  (* access events in the failed execution *)
  races_detected : int;        (* individual data races in it *)
  races_in_chain : int;        (* after Causality Analysis *)
}

type report = {
  case : case;
  slices_tried : int;
  slice_threads : string list;  (* threads of the reproducing slice *)
  lifs : Lifs.result;
  causality : Causality.result option;
  chain : Chain.t option;
  metrics : metrics option;
  degraded : bool;              (* some decision exhausted its budget or
                                   was accepted below full agreement *)
  resilience : Resilience.t option;
  faults_injected : int;        (* faults injected during this diagnosis *)
}

let reproduced r = r.chain <> None

(* Restrict the case's guest to the threads named by a slice; threads
   pulled in by resource closure become the serial prologue. *)
let realize (case : case) (slice : Trace.Slicer.t) :
    (Ksim.Program.group * int list) option =
  let episode_names =
    List.map (fun (e : Trace.History.episode) -> e.thread) slice.episodes
  in
  let setup_names =
    List.map (fun (e : Trace.History.episode) -> e.thread) slice.setup
  in
  let spec_named n (s : Ksim.Program.thread_spec) =
    String.equal s.spec_name n
  in
  let find n = List.find_opt (spec_named n) case.group.Ksim.Program.threads in
  let setup_specs = List.filter_map find setup_names in
  let main_specs = List.filter_map find episode_names in
  (* Background-thread episodes have no top-level spec: they are spawned
     by the syscalls at runtime, so they need no realization. *)
  if main_specs = [] then None
  else
    let threads = setup_specs @ main_specs in
    let prologue = List.mapi (fun i _ -> i) setup_specs in
    Some ({ case.group with Ksim.Program.threads }, prologue)

let empty_lifs_result () : Lifs.result =
  { found = None;
    stats = { schedules = 0; pruned = 0; static_pruned = 0;
              invariant_pruned = 0; gain_reorderings = 0;
              trace_equivalent = 0; interleavings = 0; simulated = 0.;
              executed_instrs = 0 };
    runs = [] }

(* Static lockset/MHP hints for a realized slice: the prologue threads
   are the serial part, everything else may interleave. *)
let hints_of_group (group : Ksim.Program.group) (prologue : int list) :
    Analysis.Summary.hints =
  let serial =
    List.filteri (fun i _ -> List.mem i prologue)
      group.Ksim.Program.threads
    |> List.map (fun (s : Ksim.Program.thread_spec) -> s.spec_name)
  in
  Analysis.Summary.hints (Analysis.Candidates.analyze ~serial group)

(* --- journal conversions ------------------------------------------------ *)

let flip_of_tested (t : Causality.tested) : Journal.flip =
  { f_race = Race.key t.race;
    f_verdict =
      (match t.verdict with
      | Causality.Root_cause -> `Root_cause
      | Causality.Benign -> `Benign);
    f_pruned = t.pruned;
    f_enforced = t.enforced;
    f_disappeared = List.map Race.key t.disappeared;
    f_confidence = t.confidence }

(* Rebuild a tested record from its journaled verdict.  [ambiguous] is
   left false — {!Causality.analyze} recomputes ambiguity over the full
   tested list, replayed or not — and the flip run's verdict is gone
   (only its consequences were journaled).  [None] when the journaled race
   key no longer matches the test set (stale journal): the flip then
   re-executes.  [keyed] is the slice's test set in order, each race
   with its {!Race.key}, built once per slice. *)
let tested_of_flip (keyed : (string * Race.t) list) (fl : Journal.flip) :
    Causality.tested option =
  match List.assoc_opt fl.f_race keyed with
  | None -> None
  | Some race ->
    Some
      { Causality.race;
        verdict =
          (match fl.f_verdict with
          | `Root_cause -> Causality.Root_cause
          | `Benign -> Causality.Benign);
        flip_verdict = None;
        pruned = fl.f_pruned;
        disappeared =
          List.filter_map
            (fun (k, r) -> if List.mem k fl.f_disappeared then Some r else None)
            keyed;
        ambiguous = false;
        enforced = fl.f_enforced;
        confidence = fl.f_confidence }

let diagnose ?max_interleavings ?max_steps ?(prune = (`None : Causality.prune))
    ?(order = (`Fixed : Lifs.order)) ?snapshot_cache:_
    ?(slice_order = `Nearest_first) ?faults ?resilience:rpolicy ?journal
    ?(engine = Ksim.Engine.default) ?on_run (case : case) : report =
  Telemetry.Probe.with_span ~cat:"diagnose" "diagnose"
    ~args:[ ("case", case.case_name) ]
  @@ fun () ->
  (* With faults armed, a Resilience.t always exists — even a
     zero-retry policy must account give-ups and low-confidence
     verdicts so the report can say the diagnosis is degraded. *)
  let resilience =
    match faults with
    | Some _ -> Some (Resilience.create ?policy:rpolicy ())
    | None -> Option.map (fun p -> Resilience.create ~policy:p ()) rpolicy
  in
  let injected_before =
    match faults with Some f -> Hypervisor.Faults.injected f | None -> 0
  in
  let assemble ~slices_tried ~slice_threads ~lifs ~causality ~chain ~metrics
      =
    { case; slices_tried; slice_threads; lifs; causality; chain; metrics;
      degraded =
        (match resilience with
        | Some r -> Resilience.degraded r
        | None -> false);
      resilience;
      faults_injected =
        (match faults with
        | Some f -> Hypervisor.Faults.injected f - injected_before
        | None -> 0) }
  in
  (* Journal state: [recorded] is what a previous (interrupted) run left
     for this case, indexed by realized-attempt order; [jslices] is the
     entry being rebuilt by this run, newest first.  Replaying what the
     journal holds writes nothing: a case it records as complete is not
     journaled again unless a slice must be rediagnosed ([replay_only]
     until then), and a slice is journaled only once the rebuilt entry
     stops being a prefix of the recorded one. *)
  let recorded_entry =
    Option.bind journal (fun j -> Journal.find_case j case.case_name)
  in
  let recorded_slices, replay_only =
    match recorded_entry with
    | Some e -> (e.Journal.slices, ref e.complete)
    | None -> ([], ref false)
  in
  let recorded = Array.of_list recorded_slices in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
    | _ :: _, [] -> false
  in
  let jslices = ref [] in
  let jsave ~complete =
    match journal with
    | None -> ()
    | Some j ->
      let slices = List.rev !jslices in
      if
        not
          (!replay_only
          || ((not complete) && is_prefix slices recorded_slices))
      then Journal.set_case j case.case_name { Journal.slices; complete }
  in
  let crash = Trace.History.crash case.history in
  let target = Trace.Crash.matches crash in
  let slices = Trace.Slicer.slices case.history in
  (* Backward-from-failure is the paper's heuristic (§4.2); the reversed
     order exists for the ablation study. *)
  let slices =
    match slice_order with
    | `Nearest_first -> slices
    | `Farthest_first -> List.rev slices
  in
  (* When no slice reproduces, report the largest search performed (the
     last slice is often a trivial setup-only one). *)
  let widest a b =
    match a with
    | None -> Some b
    | Some (a' : Lifs.result) ->
      if b.Lifs.stats.schedules > a'.stats.schedules then Some b else a
  in
  (* Causality Analysis over a reproduced failure, journaling each flip
     as it is decided.  [prior_flips] are journaled verdicts from an
     interrupted run (empty on a fresh attempt); they replay without
     re-execution. *)
  let run_causality ~group ~prologue ~slice_threads
      ~(success : Lifs.success) ~(lifs : Lifs.result)
      ~(prior_flips : Journal.flip list)
      ~(stats_base : Causality.stats) =
    let ca_vm = Hypervisor.Vm.create ?faults ~engine group in
    (* The slice's first checkpoint carries its races; each flip then
       appends only its verdict and the CA counters so far. *)
    if journal <> None then (
      jslices :=
        Journal.Reproduced
          { r_threads = slice_threads;
            r_schedule = success.Lifs.schedule;
            r_lifs = lifs.Lifs.stats;
            r_races = success.Lifs.races;
            r_flips = prior_flips;
            r_ca_schedules = stats_base.Causality.schedules;
            r_ca_simulated = stats_base.Causality.simulated;
            r_ca_instrs = stats_base.Causality.executed_instrs;
            r_ca_complete = false }
        :: !jslices;
      jsave ~complete:false);
    let replay =
      if prior_flips = [] then None
      else (
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (fl : Journal.flip) -> Hashtbl.replace tbl fl.f_race fl)
          prior_flips;
        let keyed =
          List.map (fun r -> (Race.key r, r)) success.Lifs.races
        in
        Some
          (fun (r : Race.t) ->
            Option.bind (Hashtbl.find_opt tbl (Race.key r))
              (tested_of_flip keyed)))
    in
    let checkpoint =
      Option.map
        (fun j t st -> Journal.add_flip j case.case_name (flip_of_tested t) st)
        journal
    in
    let ca =
      Causality.analyze ?max_steps ~prologue ~prune ?resilience
        ?replay ?checkpoint ~stats_base ca_vm ~failing:success.Lifs.outcome
        ~races:success.Lifs.races ()
    in
    (* The authoritative flip list (ambiguity resolved, replays
       included) supersedes the incremental checkpoints; the case is
       done exactly when CA finishes on the reproducing slice. *)
    if not !replay_only then
      Option.iter
        (fun j ->
          Journal.complete_case j case.case_name
            (List.map flip_of_tested ca.Causality.tested)
            ca.Causality.stats)
        journal;
    let chain = Chain.of_causality ca ~failure:success.Lifs.failure in
    let metrics =
      { mem_accessing_instrs =
          List.length
            (Race.accesses_of_trace success.Lifs.outcome.trace);
        races_detected = List.length success.Lifs.races;
        races_in_chain = List.length ca.Causality.root_causes }
    in
    (ca, chain, metrics)
  in
  let rec try_slices tried last_lifs = function
    | [] ->
      jsave ~complete:true;
      assemble ~slices_tried:tried ~slice_threads:[]
        ~lifs:
          (match last_lifs with Some l -> l | None -> empty_lifs_result ())
        ~causality:None ~chain:None ~metrics:None
    | slice :: rest -> (
      match realize case slice with
      | None -> try_slices tried last_lifs rest
      | Some (group, prologue) -> (
        Log.info (fun m ->
            m "case %s: trying slice {%a}" case.case_name
              (Fmt.list ~sep:Fmt.comma Fmt.string)
              (Trace.Slicer.threads slice));
        Telemetry.Probe.count "diagnose.slices";
        let slice_threads = Trace.Slicer.threads slice in
        let recorded_slice =
          if tried < Array.length recorded then Some recorded.(tried)
          else None
        in
        (* The whole attempt — LIFS, and Causality Analysis on success
           — is one slice span; the recursion to the next slice happens
           outside it, so slice spans are siblings in the trace. *)
        let fresh () =
          replay_only := false;
          let lifs_vm = Hypervisor.Vm.create ?faults ~engine group in
          (* [`Invariants] brings the lockset hints and the
             failure-relevance closure of the realized slice. *)
          let hints, invariants =
            match prune with
            | `Invariants ->
              ( Some (hints_of_group group prologue),
                Some (Analysis.Absdom.of_group group) )
            | `None -> (None, None)
          in
          (* The thread holding the reported crash site, when the
             report names one: the gain scheduler runs its start
             orders first. *)
          let focus =
            match crash.Trace.Crash.location with
            | None -> None
            | Some label ->
              List.find_index
                (fun (spec : Ksim.Program.thread_spec) ->
                  List.mem label (Ksim.Program.labels spec.program))
                group.Ksim.Program.threads
          in
          let lifs =
            Lifs.search ?max_interleavings ?max_steps ~prologue
              ?static_hints:hints ?invariants ?focus ~order ?resilience
              ?on_run:(Option.map (fun f -> f ~slice:tried) on_run)
              lifs_vm ~target ()
          in
          match lifs.found with
          | None ->
            (if journal <> None then (
               jslices :=
                 Journal.No_repro
                   { nr_threads = slice_threads;
                     nr_lifs = lifs.stats }
                 :: !jslices;
               jsave ~complete:false));
            Error lifs
          | Some success ->
            let ca, chain, metrics =
              run_causality ~group ~prologue ~slice_threads ~success ~lifs
                ~prior_flips:[]
                ~stats_base:Causality.zero_stats
            in
            Ok
              (assemble ~slices_tried:(tried + 1) ~slice_threads ~lifs
                 ~causality:(Some ca) ~chain:(Some chain)
                 ~metrics:(Some metrics))
        in
        let attempt () =
          match recorded_slice with
          | Some (Journal.No_repro s)
            when s.nr_threads = slice_threads ->
            (* Journaled non-reproduction: skip the whole LIFS search. *)
            Telemetry.Probe.count "diagnose.slices_replayed";
            jslices := Journal.No_repro s :: !jslices;
            jsave ~complete:false;
            Error
              { Lifs.found = None;
                stats = s.nr_lifs;
                runs = [] }
          | Some (Journal.Reproduced s)
            when s.r_threads = slice_threads -> (
            (* Journaled reproduction: re-run only the recorded schedule
               to rebuild the machine state the flips permute. *)
            let lifs_vm = Hypervisor.Vm.create ?faults ~engine group in
            let r =
              Executor.run_preemption ?max_steps ~prologue ?resilience
                lifs_vm s.r_schedule
            in
            match Executor.failed r with
            | Some f when target f ->
              Telemetry.Probe.count "diagnose.slices_replayed";
              let success =
                { Lifs.schedule = s.r_schedule;
                  outcome = r.outcome;
                  failure = f;
                  races = s.r_races }
              in
              let lifs =
                { Lifs.found = Some success;
                  stats = s.r_lifs;
                  runs = [ (s.r_schedule, r.outcome) ] }
              in
              let stats_base =
                { Causality.zero_stats with
                  schedules = s.r_ca_schedules;
                  simulated = s.r_ca_simulated;
                  executed_instrs = s.r_ca_instrs }
              in
              let ca, chain, metrics =
                run_causality ~group ~prologue ~slice_threads ~success ~lifs
                  ~prior_flips:s.r_flips ~stats_base
              in
              Ok
                (assemble ~slices_tried:(tried + 1) ~slice_threads ~lifs
                   ~causality:(Some ca) ~chain:(Some chain)
                   ~metrics:(Some metrics))
            | Some _ | None ->
              Log.warn (fun m ->
                  m
                    "case %s: journaled schedule no longer reproduces \
                     (stale journal?); rediagnosing slice"
                    case.case_name);
              fresh ())
          | Some _ ->
            Log.warn (fun m ->
                m
                  "case %s: journaled slice does not match this attempt \
                   (stale journal?); rediagnosing slice"
                  case.case_name);
            fresh ()
          | None -> fresh ()
        in
        match
          Telemetry.Probe.with_span ~cat:"diagnose" "diagnose.slice"
            ~args:
              [ ("threads",
                 String.concat "," (Trace.Slicer.threads slice)) ]
            attempt
        with
        | Error lifs -> try_slices (tried + 1) (widest last_lifs lifs) rest
        | Ok report -> report))
  in
  try_slices 0 None slices
