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
   checkpointed before the next flip is tested. *)

module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule
module Controller = Hypervisor.Controller

let src = Logs.Src.create "aitia.causality" ~doc:"Causality Analysis"

module Log = (val Logs.src_log src : Logs.LOG)

type verdict = Root_cause | Benign

type tested = {
  race : Race.t;
  verdict : verdict;
  (* The flip run's verdict; [None] when the flip was statically
     pruned (no re-run exists) or replayed from a journal. *)
  flip_verdict : Controller.verdict option;
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
  simulated : float;
  executed_instrs : int;  (* instructions executed *)
}

(* The identity for [stats_base] (resumed analyses add the journaled
   progress of the interrupted run here). *)
let zero_stats =
  { schedules = 0; flips_statically_pruned = 0; simulated = 0.;
    executed_instrs = 0 }

type prune = [ `None | `Invariants ]

let prune_names = [ ("none", `None); ("invariants", `Invariants) ]

type result = {
  tested : tested list;          (* in testing order *)
  root_causes : Race.t list;     (* in trace order (second access asc.) *)
  benign : Race.t list;
  edges : (Race.t * Race.t) list;  (* r1 -> r2: flipping r1 removes r2 *)
  ambiguous : Race.t list;
  stats : stats;
}

(* --- flip-plan construction ------------------------------------------- *)

module Flipfeas = Analysis.Flipfeas

let section_containing sections ~tid ~index =
  List.find_opt
    (fun (s : Flipfeas.section) ->
      s.cs_tid = tid && s.cs_start <= index
      && match s.cs_stop with Some e -> index <= e | None -> true)
    sections

(* The trace indices of the diagnosis schedule enforcing [r.second]
   before [r.first] while preserving the rest of the failing sequence.
   When both endpoints sit in critical sections of the same lock, the
   sections are flipped as units.  For a pending race (second never
   executed because the failure halted the machine) the second
   instruction is inserted before the first; run-through in the plan
   policy walks its thread to that instruction. *)
let flip (ctx : Flipfeas.ctx) (r : Race.t) : Flipfeas.flip =
  Telemetry.Probe.with_span ~cat:"causality" "causality.plan" @@ fun () ->
  let events = Flipfeas.events ctx in
  let tid k = events.(k).Ksim.Machine.iid.Iid.tid in
  let unchanged = { Flipfeas.lo = 0; window = [||]; pending = None } in
  let sections = Flipfeas.sections ctx in
  match
    (Flipfeas.index_of ctx r.first.iid, Flipfeas.index_of ctx r.second.iid)
  with
  | None, _ -> unchanged (* first endpoint not in trace: nothing to reorder *)
  | Some i, None ->
    (* Pending second: insert it just before the first endpoint — or,
       when the first endpoint sits inside a critical section, before
       that section's lock, so the whole section is displaced as a unit
       (the pending thread may need the same lock). *)
    let k =
      match section_containing sections ~tid:(tid i) ~index:i with
      | Some cs -> cs.cs_start
      | None -> i
    in
    { unchanged with pending = Some (k, r.second.iid) }
  | Some i, Some j when j <= i -> unchanged (* already flipped *)
  | Some i, Some j ->
    (* Critical-section unit adjustment: the window [lo, hi] moves. *)
    let u = tid j in
    let lo, hi =
      match
        ( section_containing sections ~tid:(tid i) ~index:i,
          section_containing sections ~tid:u ~index:j )
      with
      | Some st, Some su when String.equal st.cs_lock su.cs_lock ->
        (st.cs_start, Option.value ~default:j su.cs_stop)
      | _ -> (i, j)
    in
    (* Hoist [u]'s window events ahead of [first], together with their
       spawn prerequisites: a thread that queued a hoisted thread inside
       the window is hoisted up to its latest such spawn (and so on
       transitively), or the enforcement could never run [u].  [cut]
       maps each hoisted thread to its last hoisted trace index. *)
    let cut = Hashtbl.create 4 in
    let rec hoist t =
      Array.iter
        (fun m ->
          if
            lo <= m && m <= hi
            && List.exists (fun (t', _) -> t' = t) events.(m).spawned
          then
            match Hashtbl.find_opt cut (tid m) with
            | Some c -> if m > c then Hashtbl.replace cut (tid m) m
            | None ->
              Hashtbl.replace cut (tid m) m;
              hoist (tid m))
        (Flipfeas.spawns ctx)
    in
    Hashtbl.replace cut u max_int;
    hoist u;
    let hoisted k =
      match Hashtbl.find_opt cut (tid k) with Some c -> k <= c | None -> false
    in
    let up, rest =
      List.partition hoisted (List.init (hi - lo + 1) (( + ) lo))
    in
    { unchanged with lo; window = Array.of_list (up @ rest) }

(* The schedule of a flip: its trace indices mapped to iids, once. *)
let schedule (ctx : Flipfeas.ctx) (f : Flipfeas.flip) : Schedule.plan =
  let events = Flipfeas.events ctx in
  let acc = ref [] in
  for p = Array.length events - 1 downto 0 do
    let k = p - f.lo in
    let i = if 0 <= k && k < Array.length f.window then f.window.(k) else p in
    acc := events.(i).iid :: !acc;
    match f.pending with
    | Some (at, iid) when at = p -> acc := iid :: !acc
    | _ -> ()
  done;
  Schedule.plan !acc

let flip_plan ctx r = schedule ctx (flip ctx r)

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

let pruned_tested (r : Race.t) reason : tested =
  Log.debug (fun m ->
      m "flip %a -> statically pruned (%s)" Race.pp_short r reason);
  { race = r;
    verdict = Benign;
    flip_verdict = None;
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
    flip_verdict = Some run.outcome.verdict;
    pruned = None;
    disappeared;
    ambiguous = false;
    enforced;
    confidence = run.confidence }

let analyze ?max_steps ?(prologue = []) ?direction ?(prune = (`None : prune))
    ?resilience ?replay ?checkpoint ?(stats_base = zero_stats)
    (vm : Hypervisor.Vm.t) ~(failing : Controller.outcome)
    ~(races : Race.t list) () : result =
  Telemetry.Probe.span_begin ~cat:"causality" "causality.analyze";
  let runs_before = Hypervisor.Vm.runs vm in
  let instrs_before = Hypervisor.Vm.executed_steps vm in
  (* Everything about the failing trace that no flip changes is built
     here once, and only read afterwards. *)
  let ctx = Flipfeas.context failing.trace in
  (* Progress so far including the journaled base of an interrupted
     analysis; the pruned-flip counts are recomputed from the final
     tested list instead (adding the base would double-count replayed
     pruned flips). *)
  let current_stats () =
    { schedules = stats_base.schedules + (Hypervisor.Vm.runs vm - runs_before);
      flips_statically_pruned = 0;
      simulated = stats_base.simulated +. Hypervisor.Vm.simulated_seconds vm;
      executed_instrs =
        stats_base.executed_instrs
        + (Hypervisor.Vm.executed_steps vm - instrs_before) }
  in
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
     so far. *)
  let executed = ref 0 in
  let tested_rev = ref [] in
  let test r =
    let t =
      match Option.bind replay (fun lookup -> lookup r) with
      | Some t ->
        Telemetry.Probe.count "causality.flips_replayed";
        t
      | None ->
        let f = flip ctx r in
        (* The static half: under [`Invariants], a flip-feasibility
           proof on the failing trace makes the flip Benign without
           execution (Benign covers every non-completing outcome). *)
        let proof =
          match prune with
          | `None -> None
          | `Invariants ->
            Flipfeas.prunable
              (Flipfeas.analyze ctx f ~first:r.first ~second:r.second)
        in
        Telemetry.Probe.span_begin ~cat:"causality" "causality.flip";
        let t =
          match proof with
          | Some reason -> pruned_tested r reason
          | None ->
            incr executed;
            executed_tested ~races r
              (Executor.run_plan ?max_steps ~prologue ?resilience vm
                 (schedule ctx f))
        in
        if Telemetry.Probe.installed () then
          Telemetry.Probe.span_end ~args:(flip_args t) ();
        (match checkpoint with
        | Some save -> save t (current_stats ())
        | None -> ());
        t
    in
    tested_rev := t :: !tested_rev
  in
  List.iter test (test_order ?direction races);
  let tested = List.rev !tested_rev in
  let is_root t = t.verdict = Root_cause in
  (* Ambiguity: a surrounding race whose nested race is also a root
     cause cannot be decided (its flip also flipped the nested one). *)
  let tested =
    List.map
      (fun t ->
        if not (is_root t) then t
        else
          { t with
            ambiguous =
              List.exists
                (fun t' ->
                  t' != t && is_root t' && Race.surrounds t.race t'.race)
                tested })
      tested
  in
  let races_where p =
    List.filter_map (fun t -> if p t then Some t.race else None) tested
  in
  let root_causes =
    races_where is_root
    |> List.sort (fun (a : Race.t) b ->
           Int.compare a.second.time b.second.time)
  in
  let benign = races_where (fun t -> t.verdict = Benign) in
  let ambiguous = races_where (fun t -> t.ambiguous) in
  let edges =
    List.concat_map
      (fun t ->
        if not (is_root t) then []
        else
          List.filter_map
            (fun r' ->
              if
                List.exists (Race.equal r') root_causes
                && not (Race.equal t.race r')
              then Some (t.race, r')
              else None)
            t.disappeared)
      tested
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
