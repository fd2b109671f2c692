(* The --prune=invariants diagnosis path: the failure-relevance
   closure (Absdom) and what is built on it.

   The qcheck property runs the full pipeline twice over the shared
   generated-program corpus (Oracle_gen): a diagnosis under
   --prune=invariants must reproduce iff the plain diagnosis does,
   report the bit-identical causality chain and root causes, and never
   execute more schedules.  The accounting case checks, for every
   corpus bug on both engines, that each controller run of such a
   diagnosis is a VM run (a LIFS preemption run or a flip plan run) and
   that each executed flip is exactly one plan run.  The flip-cascade
   case checks, for every corpus bug, that each flip's pruning reason
   is exactly its flip-feasibility proof and that the chain equals the
   --prune=none chain.  The unit tests cover the relevance closure
   and the redundant critical-section lint (including nested
   sections). *)

open Ksim.Program.Build
module Invariants = Analysis.Invariants
module Absdom = Analysis.Absdom

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- the parity property ---------------------------------------------------- *)

let case_of_group (group : Ksim.Program.group) : Aitia.Diagnose.case =
  (* The generated failing thread is always "A" and its assertion label
     "a_chk" (Oracle_gen.gen_thread). *)
  { Aitia.Diagnose.case_name = group.Ksim.Program.group_name;
    subsystem = "oracle";
    group;
    history =
      Bugs.Caselib.history ~group ~symptom:"kernel BUG (BUG_ON)"
        ~location:"a_chk" ~subsystem:"oracle" () }

let chain_render (r : Aitia.Diagnose.report) =
  match r.chain with
  | None -> "<no chain>"
  | Some c -> Aitia.Chain.to_string c

let root_keys (r : Aitia.Diagnose.report) =
  match r.causality with
  | None -> []
  | Some ca -> List.map Aitia.Race.key ca.Aitia.Causality.root_causes

let total_schedules (r : Aitia.Diagnose.report) =
  r.lifs.stats.schedules
  +
  match r.causality with
  | Some (ca : Aitia.Causality.result) -> ca.stats.schedules
  | None -> 0

let checked = ref 0
let reproduced_cases = ref 0

let prop_invariant_diagnosis_parity =
  QCheck.Test.make ~count:250 ~long_factor:4
    ~name:"--prune=invariants diagnosis is chain-identical to unpruned"
    Oracle_gen.arb_oracle_group
    (fun group ->
      incr checked;
      let plain =
        Aitia.Diagnose.diagnose ~max_interleavings:16 (case_of_group group)
      in
      let inv =
        Aitia.Diagnose.diagnose ~max_interleavings:16 ~prune:`Invariants
          (case_of_group group)
      in
      if Aitia.Diagnose.reproduced plain then incr reproduced_cases;
      Aitia.Diagnose.reproduced plain = Aitia.Diagnose.reproduced inv
      && String.equal (chain_render plain) (chain_render inv)
      && root_keys plain = root_keys inv
      && total_schedules inv <= total_schedules plain)

let test_parity_coverage () =
  checkb
    (Fmt.str "parity compared on %d generated programs >= 250" !checked)
    true (!checked >= 250);
  checkb "some generated programs reproduced a failure" true
    (!reproduced_cases > 0)

(* --- run accounting ----------------------------------------------------------- *)

(* Every guest run of a --prune=invariants --order=gain diagnosis goes
   through the VM: the controller's run count is the executor's
   preemption and plan runs, and each executed flip is one plan run. *)
let test_run_accounting (bug : Bugs.Bug.t) () =
  List.iter
    (fun engine ->
      let recorder = Telemetry.Recorder.create () in
      let c = Telemetry.Recorder.counter recorder in
      Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder) (fun () ->
          ignore
            (Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
               ~engine ~prune:`Invariants ~order:`Gain (bug.case ())));
      let name what =
        Fmt.str "%s (%s): %s" bug.id (Ksim.Engine.to_string engine) what
      in
      checki
        (name "controller runs = preemption + plan runs")
        (c "executor.preemption_runs" + c "executor.plan_runs")
        (c "controller.runs");
      checki
        (name "plan runs = executed flips")
        (c "causality.flips_executed")
        (c "executor.plan_runs"))
    [ Ksim.Engine.Reference; Ksim.Engine.Compiled ]

(* --- the flip cascade -------------------------------------------------------- *)

(* Causality Analysis under --prune=invariants is the flip-feasibility
   cascade and nothing more: every tested flip carries exactly the
   reason Flipfeas gives for its plan on the failing trace, a flip runs
   iff it has no such proof, and the chain equals the --prune=none
   chain. *)
let test_flipfeas_cascade (bug : Bugs.Bug.t) () =
  let diagnose prune =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings ~prune
      ~order:`Gain (bug.case ())
  in
  let inv = diagnose `Invariants in
  checks (bug.id ^ ": chain equals the unpruned chain")
    (chain_render (diagnose `None))
    (chain_render inv);
  match (inv.lifs.found, inv.causality) with
  | Some success, Some ca ->
    let ctx = Analysis.Flipfeas.context success.outcome.trace in
    List.iter
      (fun (t : Aitia.Causality.tested) ->
        let name what =
          Fmt.str "%s %a: %s" bug.id Aitia.Race.pp_short t.race what
        in
        let plan = Aitia.Causality.flip_plan ctx t.race in
        let proof =
          Analysis.Flipfeas.prunable
            (Analysis.Flipfeas.analyze ctx ~plan:plan.events
               ~first:t.race.first ~second:t.race.second)
        in
        checkb (name "pruned by the flipfeas proof") true (t.pruned = proof);
        checkb (name "runs iff unproven") (proof = None)
          (t.flip_verdict <> None))
      ca.tested
  | _ -> Alcotest.failf "%s did not reproduce" bug.id

(* --- the relevance closure --------------------------------------------------- *)

let mk_thread name instrs =
  { Ksim.Program.spec_name = name;
    context = Ksim.Program.Syscall { call = name; sysno = 0 };
    program = Ksim.Program.make ~name instrs;
    resources = [] }

(* flag feeds B's BUG_ON (relevant); stat is pure noise (irrelevant). *)
let fixture =
  Ksim.Program.group ~name:"inv-fixture"
    ~globals:[ ("flag", Ksim.Value.Int 0); ("stat", Ksim.Value.Int 0) ]
    [ mk_thread "A"
        [ store "A0" (g "stat") (cint 1); store "A1" (g "flag") (cint 1) ];
      mk_thread "B"
        [ store "B0" (g "stat") (cint 2); load "B1" "r" (g "flag");
          bug_on "B2" (Eq (reg "r", cint 0)) ] ]

let test_relevance_closure () =
  let rel = Absdom.of_group fixture in
  checkb "flag (feeds the assertion) is relevant" true
    (Absdom.mem_addr rel (Ksim.Addr.Global "flag"));
  checkb "stat (pure noise) is irrelevant" false
    (Absdom.mem_addr rel (Ksim.Addr.Global "stat"))

(* --- redundant critical sections -------------------------------------------- *)

(* A's outer L1 section nests the L2 section, so only the inner one is
   straight-line; B's L2 section guards the relevant flag load. *)
let lock_fixture =
  Ksim.Program.group ~name:"inv-locks" ~locks:[ "L1"; "L2" ]
    ~globals:[ ("flag", Ksim.Value.Int 0); ("stat", Ksim.Value.Int 0) ]
    [ mk_thread "A"
        [ lock "A0" "L1"; lock "A1" "L2"; store "A2" (g "stat") (cint 1);
          unlock "A3" "L2"; unlock "A4" "L1"; store "A5" (g "flag") (cint 1)
        ];
      mk_thread "B"
        [ lock "B0" "L2"; load "B1" "r" (g "flag"); unlock "B2" "L2";
          bug_on "B3" (Eq (reg "r", cint 0)) ] ]

let test_redundant_sections () =
  match Invariants.redundant_sections lock_fixture with
  | [ r ] ->
    checks "thread" "A" r.red_thread;
    checks "lock" "L2" r.red_lock;
    checks "witness start" "A1" r.red_start;
    checks "witness stop" "A3" r.red_stop;
    checki "body size" 1 r.red_body
  | rs ->
    Alcotest.failf "expected exactly the inner noise section, got %d"
      (List.length rs)

let () =
  Alcotest.run "invariants"
    [ ( "parity",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_invariant_diagnosis_parity;
          Alcotest.test_case "coverage" `Quick test_parity_coverage ] );
      ( "accounting",
        List.map
          (fun (bug : Bugs.Bug.t) ->
            Alcotest.test_case bug.id `Quick (test_run_accounting bug))
          Bugs.Registry.all );
      ( "flip cascade",
        List.map
          (fun (bug : Bugs.Bug.t) ->
            Alcotest.test_case bug.id `Quick (test_flipfeas_cascade bug))
          Bugs.Registry.all );
      ( "relevance",
        [ Alcotest.test_case "relevance closure" `Quick
            test_relevance_closure ] );
      ( "lint",
        [ Alcotest.test_case "redundant sections" `Quick
            test_redundant_sections ] ) ]
