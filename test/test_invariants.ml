(* The error-invariant engine (Analysis.Invariants / Absdom) and the
   invariant-pruned diagnosis path.

   The qcheck property runs the full pipeline twice over the shared
   generated-program corpus (Oracle_gen): a diagnosis under
   --prune=invariants must reproduce iff the plain diagnosis does,
   report the bit-identical causality chain and root causes, and never
   execute more schedules.  The unit tests exercise the derivation
   rules on hand-built traces, each on both engines with equal
   certificates: the empty displaced window, an irrelevant displaced
   window, ambiguous (heap) aliasing falling back to the replay rule, a
   pending-insertion plan that must execute (unless a prologue runs
   first), the family cache,
   certificate re-checking, the replay's controller accounting, and the
   redundant critical-section lint (including nested sections).  The
   corpus soundness cases re-run every flip the replay rule discharges
   on a fault-free VM and re-check its certificate. *)

open Ksim.Program.Build
module Iid = Ksim.Access.Iid
module Invariants = Analysis.Invariants
module Absdom = Analysis.Absdom
module Flipfeas = Analysis.Flipfeas

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

(* --- hand-built traces for the derivation rules ----------------------------- *)

let mk_thread name instrs =
  { Ksim.Program.spec_name = name;
    context = Ksim.Program.Syscall { call = name; sysno = 0 };
    program = Ksim.Program.make ~name instrs;
    resources = [] }

(* flag feeds B's BUG_ON (relevant); stat is pure noise (irrelevant).
   Running B's load before A1 leaves r = 0 and trips the assertion. *)
let fixture =
  Ksim.Program.group ~name:"inv-fixture"
    ~globals:[ ("flag", Ksim.Value.Int 0); ("stat", Ksim.Value.Int 0) ]
    [ mk_thread "A"
        [ store "A0" (g "stat") (cint 1); store "A1" (g "flag") (cint 1) ];
      mk_thread "B"
        [ store "B0" (g "stat") (cint 2); load "B1" "r" (g "flag");
          bug_on "B2" (Eq (reg "r", cint 0)) ] ]

(* Drive the machine through an explicit tid sequence; the final step
   may fault (the events list then ends with the faulting event). *)
let drive group tids =
  let rec go m acc = function
    | [] -> List.rev acc
    | tid :: rest -> (
      match Ksim.Machine.step m tid with
      | Ok (m', ev) -> go m' (ev :: acc) rest
      | Error _ -> Alcotest.fail "drive: machine stuck")
  in
  go (Ksim.Machine.create group) [] tids

let iids trace = List.map (fun (e : Ksim.Machine.event) -> e.iid) trace
let budget = 2_000

(* The replay rule follows the VM's engine and machine fingerprints are
   engine-independent, so a derivation must give the same answer on
   both engines.  Returns the compiled engine (the default) and its
   answer. *)
let prune_both group ~key ~ctx ~plan =
  let on engine =
    let e = Invariants.create ~engine group in
    (e, Invariants.prune e ~key ~ctx ~plan ~run_through_budget:budget)
  in
  let _, reference = on Ksim.Engine.Reference in
  let e, compiled = on Ksim.Engine.Compiled in
  checkb (key ^ ": same proof on both engines") true (reference = compiled);
  (e, compiled)

let failing_trace = lazy (drive fixture [ 0; 1; 1; 1 ] (* A0 B0 B1 B2 *))

let test_relevance_closure () =
  let rel = Absdom.of_group fixture in
  checkb "flag (feeds the assertion) is relevant" true
    (Absdom.mem_addr rel (Ksim.Addr.Global "flag"));
  checkb "stat (pure noise) is irrelevant" false
    (Absdom.mem_addr rel (Ksim.Addr.Global "stat"))

let test_segment_empty_window () =
  let trace = Lazy.force failing_trace in
  let ctx = Flipfeas.context trace in
  match prune_both fixture ~key:"k-id" ~ctx ~plan:(iids trace) with
  | _, None -> Alcotest.fail "identity plan must be discharged"
  | e, Some (reason, c) ->
    checkb "segment reason" true
      (String.starts_with ~prefix:"invariant segment:" reason);
    checkb "segment rule" true (c.cert_rule = Invariants.Segment);
    checkb "no displaced window" true (c.cert_window = None);
    checki "no replay steps" 0 c.cert_steps;
    checkb "certificate re-checks" true
      (Invariants.check e ~ctx ~plan:(iids trace)
         ~run_through_budget:budget c)

let test_segment_irrelevant_window () =
  let trace = Lazy.force failing_trace in
  let ctx = Flipfeas.context trace in
  let plan =
    match iids trace with
    | a0 :: b0 :: rest -> b0 :: a0 :: rest (* swap the two stat stores *)
    | _ -> Alcotest.fail "unexpected trace shape"
  in
  match prune_both fixture ~key:"k-seg" ~ctx ~plan with
  | _, None -> Alcotest.fail "irrelevant displacement must be discharged"
  | e, Some (_, c) ->
    checkb "segment rule" true (c.cert_rule = Invariants.Segment);
    checkb "window covers the swap" true (c.cert_window = Some (0, 1));
    Alcotest.(check (list string))
      "displaced locations" [ "&stat" ] c.cert_displaced;
    (* Tampered evidence must not re-check. *)
    checkb "tampered certificate rejected" false
      (Invariants.check e ~ctx ~plan ~run_through_budget:budget
         { c with cert_displaced = [ "&flag" ] })

(* Delaying A0 past the whole of B displaces B's relevant flag load:
   no abstract proof, but the replayed re-run still reaches the
   assertion. *)
let delayed_a0_plan trace =
  match iids trace with
  | a0 :: rest -> rest @ [ a0 ]
  | _ -> Alcotest.fail "unexpected trace shape"

let test_replay_relevant_window () =
  (* The flip is discharged with a state-fingerprint chain. *)
  let trace = Lazy.force failing_trace in
  let ctx = Flipfeas.context trace in
  let plan = delayed_a0_plan trace in
  match prune_both fixture ~key:"k-rep" ~ctx ~plan with
  | _, None -> Alcotest.fail "still-failing order must be discharged"
  | e, Some (reason, c) ->
    checkb "replay reason" true
      (String.starts_with ~prefix:"invariant replay:" reason);
    checkb "replay rule" true (c.cert_rule = Invariants.Replay);
    checkb "replay executed steps" true (c.cert_steps > 0);
    checkb "invariant chain sampled" true (c.cert_fingerprints <> []);
    checkb "certificate re-checks" true
      (Invariants.check e ~ctx ~plan ~run_through_budget:budget c)

(* A replay is one controller run, counted with its steps like any
   other; a family hit re-runs nothing. *)
let test_replay_counted () =
  let trace = Lazy.force failing_trace in
  let ctx = Flipfeas.context trace in
  let plan = delayed_a0_plan trace in
  List.iter
    (fun engine ->
      let e = Invariants.create ~engine fixture in
      let recorder = Telemetry.Recorder.create () in
      let c = Telemetry.Recorder.counter recorder in
      let prune key =
        Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder)
          (fun () ->
            Invariants.prune e ~key ~ctx ~plan ~run_through_budget:budget)
      in
      let name what = Ksim.Engine.to_string engine ^ ": " ^ what in
      match prune "k-rep" with
      | None -> Alcotest.fail "still-failing order must be discharged"
      | Some (_, cert) ->
        let after_replay () =
          checki (name "one replay") 1 (c "analysis.invariant_replays");
          checki (name "one controller run") 1 (c "controller.runs");
          checki (name "the replay's steps") cert.cert_steps
            (c "controller.instructions")
        in
        after_replay ();
        checkb (name "family hit discharged") true
          (prune "k-rep-again" <> None);
        checki (name "family hit") 1 (c "analysis.invariant_family_hits");
        after_replay ())
    [ Ksim.Engine.Reference; Ksim.Engine.Compiled ]

let test_pending_insertion_no_proof () =
  (* Inserting A1 (pending: never executed in the failing trace) before
     B publishes the flag: the replayed re-run completes, so no proof
     exists and the flip must execute. *)
  let trace = Lazy.force failing_trace in
  let ctx = Flipfeas.context trace in
  let plan =
    Iid.make ~tid:0 ~label:"A1" ~occ:1 :: iids trace
  in
  checkb "averting flip must execute" true
    (snd (prune_both fixture ~key:"k-avert" ~ctx ~plan) = None);
  (* Behind a prologue that runs B to completion first, the same plan
     reaches the assertion before A publishes the flag: the replay
     honours the executor's prologue. *)
  List.iter
    (fun engine ->
      let e = Invariants.create ~prologue:[ 1 ] ~engine fixture in
      match
        Invariants.prune e ~key:"k-prologue" ~ctx ~plan
          ~run_through_budget:budget
      with
      | Some (_, c) ->
        checkb "prologue replay still fails" true
          (c.cert_rule = Invariants.Replay
          && String.starts_with ~prefix:"failed: " c.cert_failure)
      | None -> Alcotest.fail "the prologue must run before the plan")
    [ Ksim.Engine.Reference; Ksim.Engine.Compiled ]

let test_family_cache () =
  let trace = Lazy.force failing_trace in
  let ctx = Flipfeas.context trace in
  List.iter
    (fun engine ->
      let e = Invariants.create ~engine fixture in
      let prune key =
        Invariants.prune e ~key ~ctx ~plan:(iids trace)
          ~run_through_budget:budget
      in
      let first = prune "race-1" in
      match (first, prune "race-2") with
      | Some _, Some (reason, c) ->
        checkb "family reason" true
          (String.starts_with ~prefix:"invariant family:" reason);
        checks "shares the first proof" "race-1" c.cert_key
      | _ -> Alcotest.fail "both plans must be discharged")
    [ Ksim.Engine.Reference; Ksim.Engine.Compiled ]

(* Distinct plans never share a family key: every flip plan of the
   fixture's trace and of the corpus bugs' failing traces, plus plans
   whose labels contain the key's own separators. *)
let test_plan_keys_distinct () =
  let mk tid label occ = Iid.make ~tid ~label ~occ in
  let crafted =
    [ [ mk 1 "1:a" 1 ]; [ mk 11 ":a" 1 ]; [ mk 1 "a1" 1 ]; [ mk 1 "a" 11 ];
      [ mk 1 "a;1:1:b" 1 ]; [ mk 1 "a" 1; mk 1 "b" 1 ]; [ mk 1 "" 1 ];
      [ mk 1 "" 1; mk 1 "" 1 ]; [] ]
  in
  let flip_plans trace races =
    let ctx = Flipfeas.context trace in
    iids trace
    :: List.map
         (fun r -> (Aitia.Causality.flip_plan ctx r).events)
         races
  in
  let fixture_plans =
    let trace = Lazy.force failing_trace in
    flip_plans trace (Aitia.Race.of_trace trace)
  in
  let corpus_plans =
    List.concat_map
      (fun (bug : Bugs.Bug.t) ->
        let r =
          Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
            (bug.case ())
        in
        match r.lifs.found with
        | Some s -> flip_plans s.outcome.trace s.races
        | None -> [])
      (Bugs.Registry.cves @ Bugs.Registry.syzkaller)
  in
  let plans = Array.of_list (crafted @ fixture_plans @ corpus_plans) in
  let keys = Array.map Invariants.plan_key plans in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if
            String.equal keys.(i) keys.(j)
            && not (List.equal Iid.equal a b)
          then Alcotest.failf "plans %d and %d share a family key" i j)
        plans)
    plans;
  checkb
    (Fmt.str "%d plans compared" (Array.length plans))
    true
    (Array.length plans > 100)

(* Ambiguous aliasing: the displaced window contains a heap-field store
   whose abstraction (Field) may alias across objects — the segment
   rule must refuse even though nothing relevant is displaced, leaving
   the concrete replay rule to decide. *)
let heap_fixture =
  Ksim.Program.group ~name:"inv-heap"
    ~globals:[ ("flag", Ksim.Value.Int 0); ("stat", Ksim.Value.Int 0) ]
    [ mk_thread "A"
        [ alloc "H0" "p" "obj" ~fields:[ ("pad", cint 0) ];
          store "H1" (reg "p" **-> "pad") (cint 1);
          store "H2" (g "flag") (cint 1) ];
      mk_thread "B"
        [ store "B0" (g "stat") (cint 2); load "B1" "r" (g "flag");
          bug_on "B2" (Eq (reg "r", cint 0)) ] ]

let test_ambiguous_aliasing_no_segment_proof () =
  let trace = drive heap_fixture [ 0; 0; 1; 1; 1 ] (* H0 H1 B0 B1 B2 *) in
  let ctx = Flipfeas.context trace in
  let plan =
    match iids trace with
    | h0 :: h1 :: b0 :: rest -> h0 :: b0 :: h1 :: rest
    | _ -> Alcotest.fail "unexpected trace shape"
  in
  match prune_both heap_fixture ~key:"k-heap" ~ctx ~plan with
  | _, None -> Alcotest.fail "still-failing order must be discharged"
  | _, Some (_, c) ->
    checkb "heap displacement falls back to replay" true
      (c.cert_rule = Invariants.Replay)

(* --- corpus soundness of the replay rule ------------------------------------- *)

let verdict_class = function
  | Hypervisor.Controller.Completed -> "completed"
  | Failed f -> "failed: " ^ Ksim.Failure.symptom f
  | Deadlock -> "deadlock"
  | Step_limit -> "step-limit"

let replay_discharged = ref 0

(* Every flip the replay rule discharged during a --prune=invariants
   diagnosis must really not complete: re-run on a fault-free VM of the
   realized slice, it ends after the certificate's steps, in the
   verdict class and the final state its certificate names, and the
   certificate re-checks from scratch on both engines. *)
let test_replay_sound (bug : Bugs.Bug.t) () =
  let case = bug.case () in
  let report =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
      ~prune:`Invariants case
  in
  match (report.lifs.found, report.causality) with
  | Some success, Some ca ->
    let slice =
      List.find
        (fun s -> Trace.Slicer.threads s = report.slice_threads)
        (Trace.Slicer.slices case.history)
    in
    let group, prologue =
      match Aitia.Diagnose.realize case slice with
      | Some realized -> realized
      | None -> Alcotest.failf "%s: reproducing slice not realizable" bug.id
    in
    let ctx = Flipfeas.context success.outcome.trace in
    List.iter
      (fun (t : Aitia.Causality.tested) ->
        let plan = Aitia.Causality.flip_plan ctx t.race in
        let derive engine =
          (* A fresh engine derives the proof itself, not a family
             member's copy of it. *)
          let e = Invariants.create ~prologue ~engine group in
          ( e,
            Invariants.prune e ~key:(Aitia.Race.key t.race) ~ctx
              ~plan:plan.events ~run_through_budget:plan.run_through_budget
          )
        in
        let name what =
          Fmt.str "%s %a: %s" bug.id Aitia.Race.pp_short t.race what
        in
        match t.pruned with
        | Some reason when String.starts_with ~prefix:"invariant" reason -> (
          let _, reference = derive Ksim.Engine.Reference in
          let e, compiled = derive Ksim.Engine.Compiled in
          checkb (name "same proof on both engines") true
            (reference = compiled);
          match compiled with
          | Some (_, c) when c.cert_rule = Invariants.Replay ->
            incr replay_discharged;
            let vm = Hypervisor.Vm.create group in
            let run = Aitia.Executor.run_plan ~prologue vm plan in
            checks (name "re-run verdict") c.cert_failure
              (verdict_class run.outcome.verdict);
            checki (name "re-run length") c.cert_steps run.outcome.steps;
            checks (name "chain ends in the re-run's final state")
              (Ksim.Engine.fingerprint run.outcome.final)
              (List.nth c.cert_fingerprints
                 (List.length c.cert_fingerprints - 1));
            checkb (name "certificate re-checks") true
              (Invariants.check e ~ctx ~plan:plan.events
                 ~run_through_budget:plan.run_through_budget c)
          | Some _ -> ()
          | None -> Alcotest.failf "%s" (name "proof not re-derived"))
        | Some _ | None -> ())
      ca.tested
  | _ -> Alcotest.failf "%s did not reproduce" bug.id

let test_replay_coverage () =
  checkb
    (Fmt.str "replay rule discharged %d corpus flips" !replay_discharged)
    true (!replay_discharged > 0)

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
      ( "derivation",
        [ Alcotest.test_case "relevance closure" `Quick
            test_relevance_closure;
          Alcotest.test_case "empty displaced window" `Quick
            test_segment_empty_window;
          Alcotest.test_case "irrelevant displaced window" `Quick
            test_segment_irrelevant_window;
          Alcotest.test_case "relevant window -> replay" `Quick
            test_replay_relevant_window;
          Alcotest.test_case "replay is one counted controller run" `Quick
            test_replay_counted;
          Alcotest.test_case "pending insertion -> no proof" `Quick
            test_pending_insertion_no_proof;
          Alcotest.test_case "family cache" `Quick test_family_cache;
          Alcotest.test_case "distinct plans, distinct keys" `Quick
            test_plan_keys_distinct;
          Alcotest.test_case "ambiguous aliasing -> no segment proof"
            `Quick test_ambiguous_aliasing_no_segment_proof ] );
      ( "replay soundness",
        List.map
          (fun (bug : Bugs.Bug.t) ->
            Alcotest.test_case bug.id `Quick (test_replay_sound bug))
          Bugs.Registry.all
        @ [ Alcotest.test_case "coverage" `Quick test_replay_coverage ] );
      ( "lint",
        [ Alcotest.test_case "redundant sections" `Quick
            test_redundant_sections ] ) ]
