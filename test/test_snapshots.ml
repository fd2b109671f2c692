(* The prefix-sharing snapshot cache: unit tests for the cache
   mechanics (eviction, poisoning, zero budget) and qcheck properties
   asserting that restore+suffix execution is state-identical to a
   fresh run — machine fingerprint, heap, verdict, trace — and that the
   whole diagnosis pipeline is bit-identical with the cache on or off
   across the full bug corpus. *)

open Ksim.Program.Build
module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule
module Snapshots = Hypervisor.Snapshots
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
  mk_group "snap-fail"
    [ ( "A",
        [ store "a1" (g "g0") (cint 1);
          load "a2" "r" (g "g0");
          bug_on "a3" (Eq (reg "r", cint 1)) ] );
      ("B", [ store "b1" (g "g0") (cint 0); nop "b2" ]) ]

(* A benign group with enough steps to make prefixes worth sharing. *)
let benign_group () =
  mk_group "snap-ok"
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

let run_with ?snapshots group sched =
  let vm = Hypervisor.Vm.create group in
  (Executor.run_preemption ?snapshots vm sched).outcome

(* --- unit: zero budget -------------------------------------------------- *)

let test_zero_budget () =
  let cache = Snapshots.create ~budget_bytes:0 () in
  checkb "disabled" false (Snapshots.enabled cache);
  let group = benign_group () in
  let cached = run_with ~snapshots:cache group serial_sched in
  let plain = run_with group serial_sched in
  checkb "outcome identical to plain path" true (same_outcome cached plain);
  checki "no hits" 0 (Snapshots.hits cache);
  checki "no misses" 0 (Snapshots.misses cache);
  checki "nothing stored" 0 (Snapshots.cached_vectors cache)

(* --- unit: hit on a child schedule -------------------------------------- *)

let child_of (o : Hypervisor.Controller.outcome) ~index ~switch_to =
  let e = List.nth o.trace index in
  { serial_sched with
    Schedule.switches =
      [ { Schedule.after = e.Ksim.Machine.iid; switch_to } ] }

let test_child_hit () =
  let group = benign_group () in
  let cache = Snapshots.create () in
  let vm = Hypervisor.Vm.create group in
  let parent = (Executor.run_preemption ~snapshots:cache vm serial_sched).outcome in
  checki "parent stored" 1 (Snapshots.cached_vectors cache);
  let child = child_of parent ~index:1 ~switch_to:1 in
  let cached = (Executor.run_preemption ~snapshots:cache vm child).outcome in
  checki "one hit" 1 (Snapshots.hits cache);
  checkb "prefix restored" true (Snapshots.restored_instrs cache > 0);
  checkb "resume counted" true (Hypervisor.Vm.resumes vm = 1);
  checkb "saved steps counted" true (Hypervisor.Vm.saved_steps vm > 0);
  checkb "sim seconds saved" true (Hypervisor.Vm.simulated_saved vm > 0.);
  let fresh = run_with group child in
  checkb "child identical to fresh run" true (same_outcome cached fresh);
  (* the child's own vector was stored and serves a grandchild *)
  checki "child stored too" 2 (Snapshots.cached_vectors cache);
  let grandchild =
    { child with
      Schedule.switches =
        child.Schedule.switches
        @ [ { Schedule.after = (List.nth cached.trace 3).Ksim.Machine.iid;
              switch_to = 0 } ] }
  in
  let gc_cached = (Executor.run_preemption ~snapshots:cache vm grandchild).outcome in
  let gc_fresh = run_with group grandchild in
  checkb "grandchild identical to fresh run" true
    (same_outcome gc_cached gc_fresh)

(* --- unit: a resumed run counts the switches it executes ---------------- *)

(* Context switches between consecutive steps of a trace. *)
let rec switches = function
  | (a : Ksim.Machine.event) :: (b :: _ as rest) ->
    (if a.iid.Iid.tid <> b.iid.Iid.tid then 1 else 0) + switches rest
  | [ _ ] | [] -> 0

(* A grandchild resumes past a prefix that holds one switch of its own.
   The [controller.context_switches] counter must cover the executed
   suffix alone: the switch at the restore boundary (from the last
   restored step to the first executed one) counts, the prefix's do
   not. *)
let test_resumed_switches () =
  let group = benign_group () in
  let cache = Snapshots.create () in
  let vm = Hypervisor.Vm.create group in
  let parent =
    (Executor.run_preemption ~snapshots:cache vm serial_sched).outcome
  in
  let child = child_of parent ~index:1 ~switch_to:1 in
  let child_run =
    (Executor.run_preemption ~snapshots:cache vm child).outcome
  in
  let grandchild =
    { child with
      Schedule.switches =
        child.Schedule.switches
        @ [ { Schedule.after = (List.nth child_run.trace 3).Ksim.Machine.iid;
              switch_to = 0 } ] }
  in
  let restored = Snapshots.restored_instrs cache in
  let recorder = Telemetry.Recorder.create () in
  let o =
    Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder) (fun () ->
        (Executor.run_preemption ~snapshots:cache vm grandchild).outcome)
  in
  let prefix = Snapshots.restored_instrs cache - restored in
  let c = Telemetry.Recorder.counter recorder in
  checki "resumed" 1 (c "controller.resumed_runs");
  checki "prefix holds a switch" 1
    (switches (List.filteri (fun i _ -> i < prefix) o.trace));
  let executed = List.filteri (fun i _ -> i >= prefix - 1) o.trace in
  checki "suffix instructions counted" (prefix + c "controller.instructions")
    o.steps;
  checki "suffix switches counted, boundary included" (switches executed)
    (c "controller.context_switches");
  checkb "boundary switch taken" true
    (switches executed > switches (List.tl executed))

(* --- unit: eviction ------------------------------------------------------ *)

let test_eviction () =
  let group = benign_group () in
  (* Budget fits roughly one vector: storing a second evicts the first. *)
  let cache = Snapshots.create ~budget_bytes:3000 () in
  let vm = Hypervisor.Vm.create group in
  let parent =
    (Executor.run_preemption ~snapshots:cache vm serial_sched).outcome
  in
  let other = Schedule.serial [ 1; 0 ] in
  ignore (Executor.run_preemption ~snapshots:cache vm other);
  checkb "eviction happened" true (Snapshots.evictions cache >= 1);
  checkb "within budget" true (Snapshots.cached_bytes cache <= 3000);
  (* the first vector is gone: its child misses and falls back *)
  let child = child_of parent ~index:1 ~switch_to:1 in
  let cached = (Executor.run_preemption ~snapshots:cache vm child).outcome in
  let fresh = run_with group child in
  checkb "evicted prefix falls back to a full run" true
    (same_outcome cached fresh);
  checki "no hits after eviction" 0 (Snapshots.hits cache)

(* --- unit: undo-log snapshot accounting ----------------------------------- *)

(* The LRU budget must track what snapshots actually cost per engine:
   reference snaps share persistent map structure (a flat constant
   each), while a compiled chain sharing one arena is charged one full
   clone at its head and only the marginal undo-log delta for each
   successor.  Regression test for the accounting bug where every
   compiled snap was charged as an unrelated machine, exhausting the
   byte budget n times too fast on undo-log snapshots. *)
let test_undo_log_accounting () =
  let group = benign_group () in
  let chain engine =
    let rec go m acc =
      match Ksim.Machine.runnable m with
      | [] -> List.rev acc
      | tid :: _ -> (
        match Ksim.Engine.step m tid with
        | Ok (m', _) -> go m' (m' :: acc)
        | Error _ -> List.rev acc)
    in
    go (Ksim.Engine.boot engine group) []
  in
  let costs ms =
    List.mapi
      (fun k m ->
        let prev = if k = 0 then None else Some (List.nth ms (k - 1)) in
        Ksim.Machine.snapshot_cost ?prev m)
      ms
  in
  let rc = costs (chain Ksim.Engine.Reference) in
  checki "benign group runs 7 steps" 7 (List.length rc);
  List.iter (fun c -> checki "reference snap: flat constant" 256 c) rc;
  let compiled = chain Ksim.Engine.Compiled in
  (match costs compiled with
  | head :: rest ->
    checki "compiled chain head: one full clone" 4096 head;
    List.iter
      (fun c ->
        checkb
          (Fmt.str "compiled successor: marginal undo delta (%d bytes)" c)
          true
          (c >= 48 && c <= 256))
      rest
  | [] -> Alcotest.fail "compiled chain is empty");
  (* A predecessor from a different boot shares no arena: full clone. *)
  let unrelated = Ksim.Engine.boot Ksim.Engine.Compiled group in
  (match compiled with
  | m :: _ ->
    checki "unrelated predecessor: full clone" 4096
      (Ksim.Machine.snapshot_cost ~prev:unrelated m)
  | [] -> ());
  (* Cache-level: the stored vector's byte estimate follows the same
     accounting through Snapshots.store. *)
  let bytes_with engine =
    let cache = Snapshots.create () in
    let vm = Hypervisor.Vm.create ~engine group in
    ignore (Executor.run_preemption ~snapshots:cache vm serial_sched);
    Snapshots.cached_bytes cache
  in
  checki "reference vector: 1024 + 256*n"
    (1024 + (256 * 7))
    (bytes_with Ksim.Engine.Reference);
  let cb = bytes_with Ksim.Engine.Compiled in
  checkb
    (Fmt.str "compiled vector: one clone + marginal deltas (%d bytes)" cb)
    true
    (cb >= 1024 + 4096 + (6 * 48) && cb <= 1024 + 4096 + (6 * 256))

(* --- unit: poisoned snapshots are never reused --------------------------- *)

let test_poisoned_never_reused () =
  let group = failing_group () in
  let cache = Snapshots.create () in
  let vm = Hypervisor.Vm.create group in
  let parent =
    (Executor.run_preemption ~snapshots:cache vm serial_sched).outcome
  in
  checkb "parent run failed" true
    (match parent.verdict with
    | Hypervisor.Controller.Failed _ -> true
    | _ -> false);
  (* A switch placed after the faulting step would restore a machine
     that already carries the failure verdict: the lookup must refuse. *)
  let faulting = List.length parent.trace - 1 in
  let child = child_of parent ~index:faulting ~switch_to:1 in
  checkb "poisoned snapshot refused" true
    (Snapshots.find_preemption cache child = None);
  let cached = (Executor.run_preemption ~snapshots:cache vm child).outcome in
  let fresh = run_with group child in
  checkb "fallback identical to fresh run" true (same_outcome cached fresh);
  (* A switch before the fault is a healthy prefix and may be reused. *)
  let early = child_of parent ~index:0 ~switch_to:1 in
  checkb "healthy prefix of a failing run is reusable" true
    (Snapshots.find_preemption cache early <> None)

(* --- unit: unfired parent switches block reuse --------------------------- *)

let test_unfired_switch_blocks_reuse () =
  let group = benign_group () in
  let cache = Snapshots.create () in
  let vm = Hypervisor.Vm.create group in
  (* The parent's switch never fires: its trigger names an instruction
     that does not execute.  Resuming a child from such a run would
     drop the still-pending switch, so the lookup must refuse. *)
  let never = Iid.make ~tid:0 ~label:"no_such_label" ~occ:1 in
  let parent =
    { serial_sched with
      Schedule.switches = [ { Schedule.after = never; switch_to = 1 } ] }
  in
  let po = (Executor.run_preemption ~snapshots:cache vm parent).outcome in
  let child =
    { parent with
      Schedule.switches =
        parent.Schedule.switches
        @ [ { Schedule.after = (List.nth po.trace 1).Ksim.Machine.iid;
              switch_to = 1 } ] }
  in
  checkb "unfired pending switch refused" true
    (Snapshots.find_preemption cache child = None);
  let cached = (Executor.run_preemption ~snapshots:cache vm child).outcome in
  let fresh = run_with group child in
  checkb "fallback identical to fresh run" true (same_outcome cached fresh)

(* --- unit: plan lookups -------------------------------------------------- *)

let test_plan_resume () =
  let group = failing_group () in
  let cache = Snapshots.create () in
  let vm = Hypervisor.Vm.create group in
  let key = Schedule.preemption_key serial_sched in
  let parent =
    (Executor.run_preemption ~snapshots:cache vm serial_sched).outcome
  in
  (* Enforcing the original order resumes from the cached prefix (capped
     before the poisoned final snapshot) and re-executes the fault. *)
  let plan = Schedule.plan (iids_of parent) in
  (match Snapshots.find_plan cache ~key plan with
  | None -> Alcotest.fail "expected a plan hit"
  | Some hit ->
    checkb "matched a non-empty prefix" true (hit.Snapshots.matched > 0);
    checkb "poisoned tail not restored" true
      (hit.Snapshots.matched < List.length parent.trace));
  let cached =
    (Executor.run_plan ~snapshots:(cache, key) vm plan).outcome
  in
  let fresh = (Executor.run_plan (Hypervisor.Vm.create group) plan).outcome in
  checkb "plan resume identical to fresh enforcement" true
    (same_outcome cached fresh);
  (* A plan diverging at the first event misses and falls back. *)
  let swapped =
    match plan.Schedule.events with
    | a :: b :: rest -> Schedule.plan (b :: a :: rest)
    | _ -> plan
  in
  let cached' =
    (Executor.run_plan ~snapshots:(cache, key) vm swapped).outcome
  in
  let fresh' =
    (Executor.run_plan (Hypervisor.Vm.create group) swapped).outcome
  in
  checkb "diverging plan identical to fresh enforcement" true
    (same_outcome cached' fresh')

(* --- qcheck: resume+suffix is state-identical to a fresh run ------------- *)

(* Shared with test_props: random two-thread programs over three
   globals, with optional failure assertions. *)
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
    (Ksim.Program.group ~name:"snap-prop"
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

(* Count hits across the whole property run so we can assert the
   property actually exercised the resume path, not just fallbacks. *)
let prop_hits = ref 0

let prop_resume_identity =
  QCheck.Test.make ~count:300
    ~name:"snapshot resume+suffix == fresh execution"
    arb_case
    (fun (group, i, _failing) ->
      let cache = Snapshots.create () in
      let vm = Hypervisor.Vm.create group in
      let parent =
        (Executor.run_preemption ~snapshots:cache vm serial_sched).outcome
      in
      let n = List.length parent.trace in
      if n = 0 then true
      else
        let index = i mod n in
        let e = List.nth parent.trace index in
        let switch_to = 1 - e.Ksim.Machine.iid.Iid.tid in
        let child = child_of parent ~index ~switch_to in
        let before = Snapshots.hits cache in
        let cached =
          (Executor.run_preemption ~snapshots:cache vm child).outcome
        in
        prop_hits := !prop_hits + (Snapshots.hits cache - before);
        let fresh = run_with group child in
        (* and the plan path against the same cached vector *)
        let key = Schedule.preemption_key serial_sched in
        let plan = Schedule.plan (iids_of parent) in
        let plan_cached =
          (Executor.run_plan ~snapshots:(cache, key) vm plan).outcome
        in
        let plan_fresh =
          (Executor.run_plan (Hypervisor.Vm.create group) plan).outcome
        in
        same_outcome cached fresh && same_outcome plan_cached plan_fresh)

let test_prop_exercised_hits () =
  checkb "resume property hit the cache" true (!prop_hits > 0)

(* --- corpus: cache on/off bit-identity ----------------------------------- *)

let corpus_reports =
  lazy
    (List.map
       (fun (bug : Bugs.Bug.t) ->
         let off =
           Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
             ~snapshot_cache:false (bug.case ())
         in
         let on =
           Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
             ~snapshot_cache:true (bug.case ())
         in
         (bug, off, on))
       Bugs.Registry.all)

let chain_str (r : Aitia.Diagnose.report) =
  match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"

let test_corpus_chain_parity (bug : Bugs.Bug.t) () =
  let _, off, on =
    List.find (fun (b, _, _) -> b == bug) (Lazy.force corpus_reports)
  in
  checks "identical causality chain" (chain_str off) (chain_str on);
  checki "identical LIFS schedule count" off.lifs.stats.schedules
    on.lifs.stats.schedules;
  checki "identical LIFS pruning" off.lifs.stats.pruned on.lifs.stats.pruned;
  (match (off.causality, on.causality) with
  | Some ca_off, Some ca_on ->
    checki "identical CA schedule count" ca_off.stats.schedules
      ca_on.stats.schedules;
    checki "identical CA verdict count" (List.length ca_off.tested)
      (List.length ca_on.tested)
  | None, None -> ()
  | _ -> Alcotest.fail "cache changed whether causality analysis ran");
  match (off.lifs.found, on.lifs.found) with
  | Some a, Some b ->
    checks "identical reproducing schedule"
      (Schedule.preemption_key a.schedule)
      (Schedule.preemption_key b.schedule);
    checkb "identical failing trace" true (same_outcome a.outcome b.outcome)
  | None, None -> ()
  | _ -> Alcotest.fail "cache changed reproduction"

(* The headline win: across the corpus, the cache cuts the instructions
   actually executed by at least 30% (ISSUE 4 acceptance criterion). *)
let test_corpus_instr_reduction () =
  let total_off, total_on =
    List.fold_left
      (fun (toff, ton) (_, (off : Aitia.Diagnose.report), on) ->
        let instrs (r : Aitia.Diagnose.report) =
          r.lifs.stats.executed_instrs
          + match r.causality with
            | Some ca -> ca.stats.executed_instrs
            | None -> 0
        in
        (toff + instrs off, ton + instrs on))
      (0, 0) (Lazy.force corpus_reports)
  in
  checkb "cache-off executes more instructions" true (total_on < total_off);
  let reduction =
    1.0 -. (float_of_int total_on /. float_of_int total_off)
  in
  Fmt.pr "corpus instruction reduction: %.1f%% (%d -> %d)@."
    (100. *. reduction) total_off total_on;
  checkb
    (Fmt.str "instruction reduction %.1f%% >= 30%%" (100. *. reduction))
    true
    (reduction >= 0.30)

let test_corpus_sim_reduction () =
  List.iter
    (fun ((bug : Bugs.Bug.t), (off : Aitia.Diagnose.report),
          (on : Aitia.Diagnose.report)) ->
      match (off.causality, on.causality) with
      | Some ca_off, Some ca_on ->
        checkb
          (Fmt.str "%s: cache reduces simulated seconds" bug.id)
          true
          (ca_on.stats.simulated < ca_off.stats.simulated)
      | _ -> ())
    (Lazy.force corpus_reports)

(* --- suite ---------------------------------------------------------------- *)

let () =
  let corpus_parity =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        Alcotest.test_case bug.id `Quick (test_corpus_chain_parity bug))
      Bugs.Registry.all
  in
  Alcotest.run "snapshots"
    [ ( "cache",
        [ Alcotest.test_case "zero budget degrades to reboot path" `Quick
            test_zero_budget;
          Alcotest.test_case "child schedule hits parent prefix" `Quick
            test_child_hit;
          Alcotest.test_case "resumed run counts its executed switches"
            `Quick test_resumed_switches;
          Alcotest.test_case "eviction falls back gracefully" `Quick
            test_eviction;
          Alcotest.test_case "undo-log snapshot accounting" `Quick
            test_undo_log_accounting;
          Alcotest.test_case "poisoned snapshot never reused" `Quick
            test_poisoned_never_reused;
          Alcotest.test_case "unfired parent switch blocks reuse" `Quick
            test_unfired_switch_blocks_reuse;
          Alcotest.test_case "plan lookups resume the failure run" `Quick
            test_plan_resume ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest [ prop_resume_identity ]
        @ [ Alcotest.test_case "property exercised cache hits" `Quick
              test_prop_exercised_hits ] );
      ("corpus-parity", corpus_parity);
      ( "corpus-savings",
        [ Alcotest.test_case "instructions executed drop >= 30%" `Quick
            test_corpus_instr_reduction;
          Alcotest.test_case "CA simulated seconds strictly reduced" `Quick
            test_corpus_sim_reduction ] ) ]
