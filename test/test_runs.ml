(* One attempt is one run from a fresh boot: unit tests that a VM
   reverts between runs (after a failure too), that a switch whose
   trigger never executes is dropped, that enforcing a run's own trace
   as a plan reproduces it, and that the step-loop counters cover every
   executed step and switch; qcheck properties asserting that a run on a
   reused VM is state-identical to one on a fresh VM — machine
   fingerprint, verdict, trace — for preemption and plan schedules; and,
   over the full bug corpus, that every reproducing schedule replays on
   a fresh VM and that the deprecated [snapshot_cache] flag of
   [Diagnose.diagnose] changes no diagnosis. *)

open Ksim.Program.Build
module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule
module Executor = Aitia.Executor

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- outcome identity -------------------------------------------------- *)

let iids_of (o : Hypervisor.Controller.outcome) =
  List.map (fun (e : Ksim.Machine.event) -> e.iid) o.trace

(* Full observable identity of two runs: verdict, executed instruction
   sequence, step count, and the canonical digest of the final machine
   (threads, registers, memory, heap, locks, failure). *)
let same_outcome (a : Hypervisor.Controller.outcome)
    (b : Hypervisor.Controller.outcome) =
  a.verdict = b.verdict && a.steps = b.steps
  && List.length a.trace = List.length b.trace
  && List.for_all2 Iid.equal (iids_of a) (iids_of b)
  && String.equal
       (Ksim.Machine.fingerprint a.final)
       (Ksim.Machine.fingerprint b.final)

let is_failed (o : Hypervisor.Controller.outcome) =
  match o.verdict with Hypervisor.Controller.Failed _ -> true | _ -> false

(* --- fixtures ----------------------------------------------------------- *)

let globals = [ ("g0", Ksim.Value.Int 0); ("g1", Ksim.Value.Int 0) ]

let mk_group name specs =
  Ksim.Program.group ~name ~globals
    (List.map
       (fun (tname, instrs) ->
         { Ksim.Program.spec_name = tname;
           context = Ksim.Program.Syscall { call = tname; sysno = 0 };
           program = Ksim.Program.make ~name:tname instrs;
           resources = [] })
       specs)

(* A deterministic failing group: serial [A; B] faults at [a3]. *)
let failing_group () =
  mk_group "runs-fail"
    [ ( "A",
        [ store "a1" (g "g0") (cint 1);
          load "a2" "r" (g "g0");
          bug_on "a3" (Eq (reg "r", cint 1)) ] );
      ("B", [ store "b1" (g "g0") (cint 0); nop "b2" ]) ]

(* A benign group with enough steps for children and grandchildren. *)
let benign_group () =
  mk_group "runs-ok"
    [ ( "A",
        [ store "a1" (g "g0") (cint 1);
          load "a2" "r" (g "g1");
          store "a3" (g "g1") (cint 2);
          nop "a4" ] );
      ( "B",
        [ load "b1" "r" (g "g0");
          store "b2" (g "g0") (cint 3);
          nop "b3" ] ) ]

let serial_sched = Schedule.serial [ 0; 1 ]

let run_fresh group sched =
  (Executor.run_preemption (Hypervisor.Vm.create group) sched).outcome

let plan_fresh group plan =
  (Executor.run_plan (Hypervisor.Vm.create group) plan).outcome

(* [sched] with one more switch, after the [index]th step of [o]. *)
let child_of ?(sched = serial_sched) (o : Hypervisor.Controller.outcome)
    ~index ~switch_to =
  let e = List.nth o.trace index in
  { sched with
    Schedule.switches =
      sched.Schedule.switches
      @ [ { Schedule.after = e.Ksim.Machine.iid; switch_to } ] }

(* Context switches between consecutive steps of a trace. *)
let rec switches = function
  | (a : Ksim.Machine.event) :: (b :: _ as rest) ->
    (if a.iid.Iid.tid <> b.iid.Iid.tid then 1 else 0) + switches rest
  | [ _ ] | [] -> 0

(* --- unit: a reused VM reverts between runs ------------------------------ *)

let test_reused_vm_reverts () =
  let group = benign_group () in
  let vm = Hypervisor.Vm.create group in
  let recorder = Telemetry.Recorder.create () in
  let parent, child, grandchild, outcomes =
    Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder) (fun () ->
        let parent = (Executor.run_preemption vm serial_sched).outcome in
        let child = child_of parent ~index:1 ~switch_to:1 in
        let co = (Executor.run_preemption vm child).outcome in
        let grandchild = child_of ~sched:child co ~index:3 ~switch_to:0 in
        let go = (Executor.run_preemption vm grandchild).outcome in
        (parent, child, grandchild, [ parent; co; go ]))
  in
  let reused = List.combine [ serial_sched; child; grandchild ] outcomes in
  List.iteri
    (fun k (sched, o) ->
      checkb (Fmt.str "run %d identical to a fresh VM's" k) true
        (same_outcome o (run_fresh group sched)))
    reused;
  checkb "child preempts the parent's order" false
    (List.for_all2 Iid.equal (iids_of parent) (iids_of (List.nth outcomes 1)));
  let c = Telemetry.Recorder.counter recorder in
  checki "one boot per run" 3 (c "vm.snapshot_restores");
  checki "runs counted" 3 (Hypervisor.Vm.runs vm);
  checki "every executed step counted"
    (List.fold_left
       (fun n (o : Hypervisor.Controller.outcome) -> n + o.steps)
       0 outcomes)
    (Hypervisor.Vm.executed_steps vm)

(* --- unit: a failed run leaves the next run unaffected -------------------- *)

let test_failure_reverted () =
  let group = failing_group () in
  let vm = Hypervisor.Vm.create group in
  let parent = (Executor.run_preemption vm serial_sched).outcome in
  checkb "parent run failed" true (is_failed parent);
  (* A switch after the faulting step never fires: the run fails the
     same way, from a clean boot, not from the failed machine. *)
  let faulting = List.length parent.trace - 1 in
  let late = child_of parent ~index:faulting ~switch_to:1 in
  let late_o = (Executor.run_preemption vm late).outcome in
  checkb "late child identical to a fresh VM's" true
    (same_outcome late_o (run_fresh group late));
  checkb "late child fails as the parent did" true
    (same_outcome late_o parent);
  (* A switch before the fault lets B reset [g0]: the failure goes. *)
  let early = child_of parent ~index:0 ~switch_to:1 in
  let early_o = (Executor.run_preemption vm early).outcome in
  checkb "early child identical to a fresh VM's" true
    (same_outcome early_o (run_fresh group early));
  checkb "early child completes" false (is_failed early_o);
  checki "two failing runs counted" 2 (Hypervisor.Vm.failures vm)

(* --- unit: a switch whose trigger never executes is dropped --------------- *)

let test_unfired_switch_dropped () =
  let group = benign_group () in
  let vm = Hypervisor.Vm.create group in
  let never = Iid.make ~tid:0 ~label:"no_such_label" ~occ:1 in
  let parent =
    { serial_sched with
      Schedule.switches = [ { Schedule.after = never; switch_to = 1 } ] }
  in
  let po = (Executor.run_preemption vm parent).outcome in
  checkb "runs as the serial order" true
    (same_outcome po (run_fresh group serial_sched));
  (* The pending switch is consumed in list order, so a switch queued
     behind it never fires either. *)
  let child = child_of ~sched:parent po ~index:1 ~switch_to:1 in
  let co = (Executor.run_preemption vm child).outcome in
  checkb "child identical to a fresh VM's" true
    (same_outcome co (run_fresh group child));
  checkb "switch queued behind the unfired one is dropped" true
    (same_outcome co po)

(* --- unit: plan enforcement ----------------------------------------------- *)

let test_plan_reproduces_run () =
  let group = failing_group () in
  let vm = Hypervisor.Vm.create group in
  let parent = (Executor.run_preemption vm serial_sched).outcome in
  let plan = Schedule.plan (iids_of parent) in
  let po = (Executor.run_plan vm plan).outcome in
  checkb "enforcing the run's own order reproduces it" true
    (same_outcome po parent);
  checkb "and its failure" true (is_failed po);
  (* Swapping the first two events moves B's store ahead of A's. *)
  let swapped =
    match plan.Schedule.events with
    | a :: b :: rest -> Schedule.plan (b :: a :: rest)
    | _ -> Alcotest.fail "plan too short to swap"
  in
  let so = (Executor.run_plan vm swapped).outcome in
  checkb "diverging plan identical to a fresh VM's" true
    (same_outcome so (plan_fresh group swapped))

(* --- unit: the step-loop counters cover every executed step -------------- *)

let test_run_counters () =
  let group = benign_group () in
  let vm = Hypervisor.Vm.create group in
  let parent = run_fresh group serial_sched in
  let child = child_of parent ~index:1 ~switch_to:1 in
  let grandchild =
    child_of ~sched:child (run_fresh group child) ~index:3 ~switch_to:0
  in
  List.iter
    (fun (what, sched) ->
      let recorder = Telemetry.Recorder.create () in
      let o =
        Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder)
          (fun () -> (Executor.run_preemption vm sched).outcome)
      in
      let c = Telemetry.Recorder.counter recorder in
      checki (what ^ ": one run") 1 (c "controller.runs");
      checki (what ^ ": every step counted") o.steps
        (c "controller.instructions");
      checki (what ^ ": every switch counted") (switches o.trace)
        (c "controller.context_switches"))
    [ ("serial", serial_sched); ("child", child);
      ("grandchild", grandchild) ];
  checkb "grandchild switches more than serial" true
    (switches (run_fresh group grandchild).trace
    > switches parent.trace)

(* --- qcheck: a run on a reused VM == fresh execution ---------------------- *)

(* Random two-thread programs over three globals, with optional failure
   assertions. *)
let prop_globals = [ "g0"; "g1"; "g2" ]

let gen_program ~prefix ~failing : Ksim.Program.labeled list QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let gen_instr i =
    let label = Fmt.str "%s%d" prefix i in
    let* k = int_range 0 4 in
    let* gvar = oneofl prop_globals in
    match k with
    | 0 -> return (load label "r" (g gvar))
    | 1 ->
      let* v = int_range 0 9 in
      return (store label (g gvar) (cint v))
    | 2 ->
      let* v = int_range 0 9 in
      return (assign label "r" (cint v))
    | 3 when i + 1 < n ->
      let* target = int_range (i + 1) (n - 1) in
      let* v = int_range 0 1 in
      return
        (branch_if label (Eq (reg "r", cint v)) (Fmt.str "%s%d" prefix target))
    | _ -> return (nop label)
  in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else
      let* instr = gen_instr i in
      build (i + 1) (instr :: acc)
  in
  let* body = build 0 [] in
  if not failing then return body
  else
    let* gvar = oneofl prop_globals in
    let* v = int_range 1 9 in
    return
      (body
      @ [ load (prefix ^ "_chk_ld") "r" (g gvar);
          bug_on (prefix ^ "_chk") (Eq (reg "r", cint v)) ])

let gen_group ~failing : Ksim.Program.group QCheck.Gen.t =
  let open QCheck.Gen in
  let* pa = gen_program ~prefix:"a" ~failing in
  let* pb = gen_program ~prefix:"b" ~failing in
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program =
        Ksim.Program.make ~name
          (assign (name ^ "_init") "r" (cint 0) :: instrs);
      resources = [] }
  in
  return
    (Ksim.Program.group ~name:"runs-prop"
       ~globals:(List.map (fun gv -> (gv, Ksim.Value.Int 0)) prop_globals)
       [ thread "A" pa; thread "B" pb ])

let arb_case =
  QCheck.make
    ~print:(fun (grp, i, f) ->
      Fmt.str "group %s, index %d, failing %b" grp.Ksim.Program.group_name i
        f)
    QCheck.Gen.(
      let* failing = bool in
      let* grp = gen_group ~failing in
      let* i = int_range 0 30 in
      return (grp, i, failing))

let prop_reused_identity =
  QCheck.Test.make ~count:300 ~name:"a run on a reused VM == fresh execution"
    arb_case
    (fun (group, i, _failing) ->
      let vm = Hypervisor.Vm.create group in
      let parent = (Executor.run_preemption vm serial_sched).outcome in
      let n = List.length parent.trace in
      n = 0
      ||
      let index = i mod n in
      let e = List.nth parent.trace index in
      let child = child_of parent ~index ~switch_to:(1 - e.Ksim.Machine.iid.Iid.tid) in
      let reused = (Executor.run_preemption vm child).outcome in
      let plan = Schedule.plan (iids_of reused) in
      let plan_reused = (Executor.run_plan vm plan).outcome in
      same_outcome reused (run_fresh group child)
      && same_outcome plan_reused (plan_fresh group plan))

let prop_plan_reproduces =
  QCheck.Test.make ~count:300
    ~name:"enforcing a run's trace as a plan reproduces the run" arb_case
    (fun (group, i, _failing) ->
      let parent = run_fresh group serial_sched in
      let n = List.length parent.trace in
      n = 0
      ||
      let index = i mod n in
      let e = List.nth parent.trace index in
      let child = child_of parent ~index ~switch_to:(1 - e.Ksim.Machine.iid.Iid.tid) in
      let o = run_fresh group child in
      same_outcome (plan_fresh group (Schedule.plan (iids_of o))) o)

(* --- corpus ----------------------------------------------------------------- *)

let diagnose ?snapshot_cache (bug : Bugs.Bug.t) =
  Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
    ?snapshot_cache (bug.case ())

(* The reproducing schedule LIFS reports is self-contained: run again on
   a fresh VM of its realized slice, it gives the same failing run, and
   enforcing that run's trace as a plan gives it once more. *)
let test_corpus_replays (bug : Bugs.Bug.t) () =
  let case = bug.case () in
  let r = diagnose bug in
  match r.lifs.found with
  | None -> checkb "not reproduced" false (Aitia.Diagnose.reproduced r)
  | Some s ->
    let realized =
      Trace.Slicer.slices case.history
      |> List.filter_map (Aitia.Diagnose.realize case)
    in
    let group, prologue = List.nth realized (r.slices_tried - 1) in
    let vm = Hypervisor.Vm.create group in
    let again = (Executor.run_preemption ~prologue vm s.schedule).outcome in
    checkb "schedule replays to the identical run" true
      (same_outcome again s.outcome);
    checkb "replay fails as reported" true
      (again.verdict = Hypervisor.Controller.Failed s.failure);
    let planned =
      (Executor.run_plan ~prologue vm (Schedule.plan (iids_of s.outcome)))
        .outcome
    in
    checkb "trace enforced as a plan gives the identical run" true
      (same_outcome planned s.outcome)

let chain_str (r : Aitia.Diagnose.report) =
  match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"

(* [snapshot_cache] is accepted and ignored: the benchmark harness still
   passes it, and it must change no part of a diagnosis. *)
let test_corpus_flag_ignored (bug : Bugs.Bug.t) () =
  let off = diagnose ~snapshot_cache:false bug in
  let on = diagnose ~snapshot_cache:true bug in
  checks "identical causality chain" (chain_str off) (chain_str on);
  checki "identical LIFS schedule count" off.lifs.stats.schedules
    on.lifs.stats.schedules;
  checki "identical LIFS pruning" off.lifs.stats.pruned on.lifs.stats.pruned;
  checki "identical LIFS instructions" off.lifs.stats.executed_instrs
    on.lifs.stats.executed_instrs;
  (match (off.causality, on.causality) with
  | Some ca_off, Some ca_on ->
    checki "identical CA schedule count" ca_off.stats.schedules
      ca_on.stats.schedules;
    checki "identical CA verdict count" (List.length ca_off.tested)
      (List.length ca_on.tested)
  | None, None -> ()
  | _ -> Alcotest.fail "the flag changed whether causality analysis ran");
  match (off.lifs.found, on.lifs.found) with
  | Some a, Some b ->
    checks "identical reproducing schedule"
      (Schedule.preemption_key a.schedule)
      (Schedule.preemption_key b.schedule);
    checkb "identical failing trace" true (same_outcome a.outcome b.outcome)
  | None, None -> ()
  | _ -> Alcotest.fail "the flag changed reproduction"

(* --- suite ---------------------------------------------------------------- *)

let () =
  let per_bug test =
    List.map
      (fun (bug : Bugs.Bug.t) -> Alcotest.test_case bug.id `Quick (test bug))
      Bugs.Registry.all
  in
  Alcotest.run "runs"
    [ ( "vm",
        [ Alcotest.test_case "a reused VM reverts between runs" `Quick
            test_reused_vm_reverts;
          Alcotest.test_case "a failed run leaves the next unaffected" `Quick
            test_failure_reverted;
          Alcotest.test_case "an unfired switch is dropped" `Quick
            test_unfired_switch_dropped;
          Alcotest.test_case "a plan of the run's trace reproduces it" `Quick
            test_plan_reproduces_run;
          Alcotest.test_case "counters cover every step and switch" `Quick
            test_run_counters ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reused_identity; prop_plan_reproduces ] );
      ("corpus-replay", per_bug test_corpus_replays);
      ("corpus-deprecated-flag", per_bug test_corpus_flag_ignored) ]
