(* One attempt is one run from a fresh boot: unit tests that a VM
   reverts between runs (after a failure too), that a switch whose
   trigger never executes is dropped, that enforcing a run's own trace
   as a plan reproduces it, and that the step-loop counters cover every
   executed step and switch; qcheck properties asserting that a run on a
   reused VM is state-identical to one on a fresh VM — machine
   fingerprint, verdict, trace — for preemption and plan schedules; and,
   over the full bug corpus, that every reproducing schedule replays on
   a fresh VM and that the deprecated [snapshot_cache] flag of
   [Diagnose.diagnose] changes no diagnosis.  Trace-equivalent
   extensions: every run a LIFS search explores, whether executed or
   derived from its parent's run without executing it, equals its
   schedule's run on a fresh VM — over the corpus on both engines and
   over generated programs; failing programs are appended to
   derive_counterexamples.txt. *)

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

(* --- trace-equivalent extensions ----------------------------------------- *)

(* A derived recording replays to the run its schedule gives: in the
   benign group's serial run, B's steps read and write only g0, which A
   last wrote at its first step, so switching to B right after that step
   moves B's whole run ahead of A's rest without reordering a conflict. *)
let test_derive_unit () =
  let group = benign_group () in
  let parent = run_fresh group serial_sched in
  let child = child_of parent ~index:0 ~switch_to:1 in
  let derived =
    Hypervisor.Controller.derive
      (Hypervisor.Controller.record parent)
      ~at:1 ~tid:1
  in
  let replayed =
    Hypervisor.Controller.replay (Ksim.Engine.boot Ksim.Engine.default group)
      derived
  in
  let ran = run_fresh group child in
  checkb "the child preempts A" false
    (List.for_all2 Iid.equal (iids_of parent) (iids_of ran));
  checkb "derived recording replays to the child's run" true
    (same_outcome replayed ran);
  checkb "event for event" true (replayed.trace = ran.trace)

let derive_counterexample_file = "derive_counterexamples.txt"

let dump_derive_counterexample group reason =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 derive_counterexample_file
  in
  output_string oc
    (Fmt.str "=== trace-equivalence counterexample: %s@.%s@." reason
       (Oracle_gen.render_group group));
  close_out oc

(* Every run LIFS hands to [on_run], executed or derived from its
   parent, is the run its schedule gives: enforced again on a fresh VM
   of the same engine and slice, the same trace event for event, the
   same verdict and the same final machine.  A derived run is one the
   search's VM did not run; each of its instructions must also access
   what it accessed in the parent run (the schedule without its last
   switch), since LIFS does not feed it to the access database.
   [explored vm] checks the runs of one search on [vm] in order and
   returns what differs, if anything; [derived] counts derived runs. *)
let explored ~engine ~group ~prologue ~derived vm =
  let runs = ref (Hypervisor.Vm.runs vm) in
  let accesses = Hashtbl.create 64 in  (* schedule key -> sorted accesses *)
  fun (sched : Schedule.preemption) (o : Hypervisor.Controller.outcome) ->
    let was_derived = Hypervisor.Vm.runs vm = !runs in
    runs := Hypervisor.Vm.runs vm;
    if was_derived then incr derived;
    let mine =
      List.sort compare
        (List.filter_map
           (fun (e : Ksim.Machine.event) ->
             Option.map
               (fun (a : Ksim.Access.t) -> (e.iid, a.addr, a.kind))
               e.access)
           o.trace)
    in
    Hashtbl.replace accesses (Schedule.preemption_key sched) mine;
    let parent_accesses () =
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: rest -> x :: drop_last rest
      in
      Hashtbl.find_opt accesses
        (Schedule.preemption_key
           { sched with Schedule.switches = drop_last sched.switches })
    in
    let again =
      (Executor.run_preemption ~prologue (Hypervisor.Vm.create ~engine group)
         sched)
        .outcome
    in
    if again.verdict <> o.verdict then Some "verdict"
    else if again.trace <> o.trace then Some "trace"
    else if
      not
        (String.equal
           (Ksim.Machine.fingerprint again.final)
           (Ksim.Machine.fingerprint o.final))
    then Some "final machine"
    else if was_derived && parent_accesses () <> Some mine then
      Some "access set"
    else None

(* The corpus, on one engine: every explored run of every slice search
   up to the reproducing one, as [Diagnose.diagnose] tries them.  The
   reproducing search explores [schedules + trace_equivalent] runs. *)
let test_corpus_explored_runs ~engine () =
  let derived = ref 0 in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let case = bug.case () in
      let target = Trace.Crash.matches (Trace.History.crash case.history) in
      let rec search = function
        | [] -> ()
        | (group, prologue) :: rest ->
          let vm = Hypervisor.Vm.create ~engine group in
          let n = ref 0 in
          let check = explored ~engine ~group ~prologue ~derived vm in
          let on_run sched o =
            incr n;
            match check sched o with
            | None -> ()
            | Some what ->
              Alcotest.failf "%s run %d (%a): %s differs" bug.id !n
                Schedule.pp_preemption sched what
          in
          let r =
            Aitia.Lifs.search ?max_interleavings:bug.max_interleavings
              ~prologue ~on_run vm ~target ()
          in
          checki (bug.id ^ ": explored runs")
            (r.stats.schedules + r.stats.trace_equivalent)
            !n;
          checki (bug.id ^ ": VM runs") r.stats.schedules
            (Hypervisor.Vm.runs vm);
          if r.found = None then search rest
      in
      search
        (Trace.Slicer.slices case.history
        |> List.filter_map (Aitia.Diagnose.realize case)))
    Bugs.Registry.all;
  checkb "some runs were derived" true (!derived > 0)

(* The same over generated programs, searched to the interleaving bound
   (no failure is the target), on both engines: the oracle's programs
   (shared globals, branches, assertions) and the engine-parity ones
   (locks, heap objects freed midway, spawned workers), where a lock,
   heap or spawn step that moved would show. *)
let generated_derived = ref 0

let explored_runs_match group =
  List.for_all
    (fun engine ->
      let vm = Hypervisor.Vm.create ~engine group in
      let check =
        explored ~engine ~group ~prologue:[] ~derived:generated_derived vm
      in
      let bad = ref None in
      let on_run sched o = if !bad = None then bad := check sched o in
      ignore
        (Aitia.Lifs.search ~max_interleavings:3 ~on_run vm
           ~target:(fun _ -> false) ()
          : Aitia.Lifs.result);
      match !bad with
      | None -> true
      | Some what ->
        dump_derive_counterexample group
          (Fmt.str "%s differs on the %s engine" what
             (Ksim.Engine.to_string engine));
        false)
    [ Ksim.Engine.Compiled; Ksim.Engine.Reference ]

(* Groups where moving a lock or heap step, or reordering the run
   queue, would give a wrong run.
   In each, B's first step reads what A's first step wrote, so LIFS
   preempts A right there for B, and B's later steps overtake A's rest
   without an access conflict.  In [lock_group] A holds [L] at the
   switch, so B blocks at its lock and A runs on: B cannot run to its
   end.  In [alloc_group] B's allocation overtakes A's, so the two
   objects swap identities and B's field access lands on an object the
   parent run never saw B touch. *)
let lock_group () =
  Ksim.Program.group ~name:"derive-lock" ~locks:[ "L" ]
    ~globals:[ ("g0", Ksim.Value.Int 0); ("g1", Ksim.Value.Int 0) ]
    [ { Ksim.Program.spec_name = "A";
        context = Ksim.Program.Syscall { call = "A"; sysno = 0 };
        program =
          Ksim.Program.make ~name:"A"
            [ lock "a0" "L"; store "a1" (g "g0") (cint 1); nop "a2";
              unlock "a3" "L" ];
        resources = [] };
      { Ksim.Program.spec_name = "B";
        context = Ksim.Program.Syscall { call = "B"; sysno = 0 };
        program =
          Ksim.Program.make ~name:"B"
            [ load "b0" "r" (g "g0"); lock "b1" "L";
              store "b2" (g "g1") (cint 1); unlock "b3" "L" ];
        resources = [] } ]

let alloc_group () =
  let thread name ~first ~pub =
    let p = String.lowercase_ascii name in
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program =
        Ksim.Program.make ~name
          [ first;
            alloc ~fields:[ ("val", cint 1) ] (p ^ "1") "p" "obj";
            store (p ^ "2") (g pub) (reg "p");
            load (p ^ "3") "r" (reg "p" **-> "val") ];
      resources = [] }
  in
  Ksim.Program.group ~name:"derive-alloc"
    ~globals:
      [ ("g0", Ksim.Value.Int 0); ("g1", Ksim.Value.Null);
        ("g2", Ksim.Value.Null) ]
    [ thread "A" ~first:(store "a0" (g "g0") (cint 1)) ~pub:"g1";
      thread "B" ~first:(load "b0" "r" (g "g0")) ~pub:"g2" ]

(* [spawn_group] is a generated counterexample: after its third switch
   B, a top-level thread, stands between A and A's first worker in the
   run queue, so A's second spawn inserts the new worker before B, and
   thus before the first worker.  With B moved to the front the scan
   passes the first worker, and the workers run the other way round. *)
let spawn_group () =
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program = Ksim.Program.make ~name instrs;
      resources = [] }
  in
  let publish i pub =
    [ alloc ~fields:[ ("val", cint 1) ] (Fmt.str "b%d" i) "p" "obj";
      store (Fmt.str "b%d_pub" i) (g pub) (reg "p");
      load (Fmt.str "b%d_fld" i) "r" (reg "p" **-> "val") ]
  in
  Ksim.Program.group ~name:"derive-spawn"
    ~entries:[ ("worker", Oracle_gen.engine_worker_entry) ]
    ~globals:[ ("g0", Ksim.Value.Int 0); ("g1", Ksim.Value.Int 0) ]
    [ thread "A"
        [ queue_work ~arg:(cint 0) "a0" "worker";
          store "a1" (g "g0") (cint 1);
          load "a2" "r" (g "g0");
          queue_work ~arg:(cint 3) "a3" "worker";
          nop "a4" ];
      thread "B" (publish 0 "g1" @ publish 1 "g0" @ [ nop "b2" ]) ]

let test_unmovable_steps () =
  List.iter
    (fun (name, group) ->
      checkb (name ^ ": every explored run is its schedule's run") true
        (explored_runs_match group))
    [ ("lock", lock_group ()); ("alloc", alloc_group ());
      ("spawn", spawn_group ()) ]

let prop_derived_oracle =
  QCheck.Test.make ~count:250 ~long_factor:10
    ~name:"every explored run is its schedule's run (oracle programs)"
    Oracle_gen.arb_oracle_group explored_runs_match

let prop_derived_engine =
  QCheck.Test.make ~count:250 ~long_factor:10
    ~name:"every explored run is its schedule's run (locks, heap, spawns)"
    Oracle_gen.arb_engine_group explored_runs_match

let test_generated_coverage () =
  checkb "generated searches derived runs" true (!generated_derived > 0)

(* --- suite ---------------------------------------------------------------- *)

let () =
  (try Sys.remove derive_counterexample_file with Sys_error _ -> ());
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
      ( "trace-equivalent",
        [ Alcotest.test_case "a derived recording is the child's run" `Quick
            test_derive_unit;
          Alcotest.test_case "lock, heap and queue order never move" `Quick
            test_unmovable_steps;
          Alcotest.test_case "corpus explored runs (compiled)" `Quick
            (test_corpus_explored_runs ~engine:Ksim.Engine.Compiled);
          Alcotest.test_case "corpus explored runs (reference)" `Quick
            (test_corpus_explored_runs ~engine:Ksim.Engine.Reference) ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_derived_oracle; prop_derived_engine ]
        @ [ Alcotest.test_case "generated coverage" `Quick
              test_generated_coverage ] );
      ("corpus-replay", per_bug test_corpus_replays);
      ("corpus-deprecated-flag", per_bug test_corpus_flag_ignored) ]
