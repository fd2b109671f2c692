(* Fault injection and the resilient execution layer: unit tests for
   the deterministic fault stream (spec parsing, seeded determinism,
   watchdog caps, verdict flaps), the executor's per-class reactions
   (retry on taint, quorum voting), the resumable diagnosis journal,
   batch-manifest and CLI validation, and the acceptance suites — chaos parity across the 22-bug corpus at a 5% mixed fault
   rate, the retries-disabled degraded mode (exit code 3, never a
   crash), and journal resume re-executing strictly fewer instructions
   while producing a byte-identical report.

   CHAOS_SEED overrides the fault seed for the corpus suites (the
   nightly CI job randomizes it); parity mismatches are appended to
   chaos_counterexamples.txt so CI can upload them. *)

open Ksim.Program.Build
module Faults = Hypervisor.Faults
module Schedule = Hypervisor.Schedule
module Executor = Aitia.Executor
module Resilience = Aitia.Resilience
module Journal = Aitia.Journal
module Iid = Ksim.Access.Iid

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 7

let corpus = Bugs.Registry.cves @ Bugs.Registry.syzkaller

let chaos_spec =
  match Faults.spec_of_string "rate=0.05" with
  | Ok s -> s
  | Error e -> failwith e

let no_retry = { Resilience.max_retries = 0; quorum = 1; backoff_base = 0. }

let chain_str (r : Aitia.Diagnose.report) =
  match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"

let taintable (c : Faults.counts) =
  c.n_boot + c.n_hang + c.n_miss + c.n_spurious

(* --- fixtures ------------------------------------------------------------ *)

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
  mk_group "fault-fail"
    [ ( "A",
        [ store "a1" (g "g0") (cint 1);
          load "a2" "r" (g "g0");
          bug_on "a3" (Eq (reg "r", cint 1)) ] );
      ("B", [ store "b1" (g "g0") (cint 0); nop "b2" ]) ]

let benign_group () =
  mk_group "fault-ok"
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

let iids_of (o : Hypervisor.Controller.outcome) =
  List.map (fun (e : Ksim.Machine.event) -> e.iid) o.trace

let same_outcome (a : Hypervisor.Controller.outcome)
    (b : Hypervisor.Controller.outcome) =
  a.verdict = b.verdict && a.steps = b.steps
  && List.length a.trace = List.length b.trace
  && List.for_all2 Iid.equal (iids_of a) (iids_of b)
  && String.equal
       (Ksim.Machine.fingerprint a.final)
       (Ksim.Machine.fingerprint b.final)

let child_of (o : Hypervisor.Controller.outcome) ~index ~switch_to =
  let e = List.nth o.trace index in
  { serial_sched with
    Schedule.switches =
      [ { Schedule.after = e.Ksim.Machine.iid; switch_to } ] }

(* --- unit: spec parsing -------------------------------------------------- *)

let test_spec_parse () =
  (match Faults.spec_of_string "rate=0.3" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let p = 0.3 /. 6. in
    checkb "rate gives each of the five kinds a sixth" true
      (s.boot = p && s.hang = p && s.miss = p && s.spurious = p
     && s.flap = p && s.site = None));
  (match Faults.spec_of_string "boot=0.25, flap=0.5,site=a2" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    checkb "per-kind keys and site" true
      (s.boot = 0.25 && s.flap = 0.5 && s.site = Some "a2" && s.hang = 0.));
  (match Faults.spec_of_string "rate=0.6,flap=0" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    checkb "later keys override earlier ones" true
      (s.flap = 0. && s.boot = 0.6 /. 6.));
  let bad s =
    match Faults.spec_of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "rate above 1 rejected" true (bad "rate=1.5");
  checkb "negative rate rejected" true (bad "boot=-0.1");
  checkb "garbage rate rejected" true (bad "hang=lots");
  checkb "unknown kind rejected" true (bad "cosmic=0.5");
  checkb "missing '=' rejected" true (bad "boot");
  checkb "empty site rejected" true (bad "site=")

(* --- unit: determinism --------------------------------------------------- *)

let test_determinism () =
  let bug = Bugs.Fig1_nullderef.bug in
  let run seed =
    let faults = Faults.create ~seed (Faults.mixed 0.6) in
    let r = Aitia.Diagnose.diagnose ~faults (bug.case ()) in
    (Aitia.Report.to_string r, r.faults_injected)
  in
  (* Find a seed whose fault schedule actually perturbs this (small)
     case, then re-run it: determinism must hold fault-for-fault. *)
  let rec firing seed =
    if seed > 60 then Alcotest.fail "no firing seed found"
    else
      let s, n = run seed in
      if n > 0 then (seed, s, n) else firing (seed + 1)
  in
  let seed, s1, n1 = firing 1 in
  let s2, n2 = run seed in
  checks "same (spec, seed) => identical report" s1 s2;
  checki "same (spec, seed) => identical fault count" n1 n2

(* --- unit: watchdog, boot, flap decision points --------------------------- *)

let test_decision_points () =
  let f = Faults.create ~seed:5 { Faults.none with hang = 1.0 } in
  Faults.start_attempt f;
  (match Faults.plan_hang f ~max_steps:100 with
  | None -> Alcotest.fail "hang=1.0 must always plan a hang"
  | Some cap ->
    checkb "hang cap within the watchdog budget" true (cap >= 1 && cap < 100);
    checkb "planning alone does not taint" false (Faults.tainted f);
    Faults.note_hang f;
    checkb "a fired hang taints the attempt" true (Faults.tainted f);
    checki "and is counted" 1 (Faults.counts f).n_hang);
  let b = Faults.create ~seed:5 { Faults.none with boot = 1.0 } in
  Faults.start_attempt b;
  checkb "boot=1.0 always fails the boot" true (Faults.boot_fails b);
  checkb "boot failure taints" true (Faults.tainted b);
  (* Flaps flip the verdict and never taint. *)
  let group = failing_group () in
  let clean =
    (Executor.run_preemption (Hypervisor.Vm.create group) serial_sched)
      .outcome
  in
  checkb "fixture fails fault-free" true
    (match clean.verdict with
    | Hypervisor.Controller.Failed _ -> true
    | _ -> false);
  let fl = Faults.create ~seed:5 { Faults.none with flap = 1.0 } in
  Faults.start_attempt fl;
  let flipped = Faults.flap fl clean in
  checkb "flap flips the verdict" true (flipped.verdict <> clean.verdict);
  checkb "flap does not taint" false (Faults.tainted fl);
  checki "flap counted" 1 (Faults.counts fl).n_flap

(* --- unit: retry masks transient taints ---------------------------------- *)

let test_retry_masks_taints () =
  (* Every schedule suffers a missed preemption; retries re-run until a
     clean attempt, so the outcome still matches the fault-free run. *)
  let group = failing_group () in
  let clean =
    (Executor.run_preemption (Hypervisor.Vm.create group) serial_sched)
      .outcome
  in
  let sched =
    { serial_sched with
      Schedule.switches =
        [ { Schedule.after = Iid.make ~tid:0 ~label:"a1" ~occ:1;
            switch_to = 1 } ] }
  in
  let clean_sw =
    (Executor.run_preemption (Hypervisor.Vm.create group) sched).outcome
  in
  let faults = Faults.create ~seed:2 { Faults.none with miss = 0.9 } in
  let vm = Hypervisor.Vm.create ~faults group in
  let res = Resilience.create () in
  let r = Executor.run_preemption ~resilience:res vm sched in
  checkb "faults fired" true ((Faults.counts faults).n_miss > 0);
  if res.stats.gave_up = 0 then begin
    checkb "retried outcome identical to fault-free" true
      (same_outcome r.outcome clean_sw);
    checkb "full confidence after clean retry" true (r.confidence = 1.0);
    checkb "retries were spent" true (res.stats.retries > 0)
  end
  else
    (* Budget exhausted at this seed: the degraded contract instead. *)
    checkb "exhausted budget yields zero confidence" true
      (r.confidence = 0.0);
  ignore clean

(* --- unit: quorum voting -------------------------------------------------- *)

let test_quorum_unanimous_flap () =
  (* flap=1.0: every clean run flaps the same way, the quorum agrees on
     the flipped verdict — undetectable by construction. *)
  let group = failing_group () in
  let faults = Faults.create ~seed:3 { Faults.none with flap = 1.0 } in
  let vm = Hypervisor.Vm.create ~faults group in
  let res = Resilience.create () in
  let r = Executor.run_preemption ~resilience:res vm serial_sched in
  checkb "quorum gathered extra runs" true (res.stats.quorum_runs > 0);
  checkb "unanimous flap accepted at full confidence" true
    (r.confidence = 1.0);
  checkb "verdict is the flipped one" true
    (match r.outcome.verdict with
    | Hypervisor.Controller.Failed _ -> false
    | _ -> true)

let test_quorum_masks_and_flags () =
  (* At flap=0.5 sweep seeds for (a) a masked flap: the quorum verdict
     equals the fault-free one even though flaps were injected, and
     (b) a disagreement accepted below full confidence. *)
  let group = failing_group () in
  let clean_failed =
    match
      (Executor.run_preemption (Hypervisor.Vm.create group) serial_sched)
        .outcome
        .verdict
    with
    | Hypervisor.Controller.Failed _ -> true
    | _ -> false
  in
  checkb "fixture fails fault-free" true clean_failed;
  let masked = ref false and flagged = ref false in
  for seed = 1 to 60 do
    if not (!masked && !flagged) then begin
      let faults = Faults.create ~seed { Faults.none with flap = 0.5 } in
      let vm = Hypervisor.Vm.create ~faults group in
      let res = Resilience.create () in
      let r = Executor.run_preemption ~resilience:res vm serial_sched in
      let failed =
        match r.outcome.verdict with
        | Hypervisor.Controller.Failed _ -> true
        | _ -> false
      in
      if (Faults.counts faults).n_flap > 0 && failed then masked := true;
      if res.stats.quorum_disagreements > 0 then begin
        flagged := true;
        checkb "disagreement lowers confidence" true (r.confidence < 1.0);
        checkb "disagreement accounted" true (res.stats.low_confidence > 0);
        checkb "disagreement degrades" true (Resilience.degraded res)
      end
    end
  done;
  checkb "quorum masked an injected flap at some seed" true !masked;
  checkb "quorum flagged a disagreement at some seed" true !flagged

(* --- unit: a breakpoint miss drops one scheduling point ------------------ *)

(* A missed scheduling point rewrites what the attempt enforces: with
   its only switch missed, a one-preemption schedule runs as the serial
   order, and a plan loses one event.  Both taint the attempt. *)
let test_miss_drops_switch () =
  let group = benign_group () in
  let serial =
    (Executor.run_preemption (Hypervisor.Vm.create group) serial_sched)
      .outcome
  in
  let child = child_of serial ~index:1 ~switch_to:1 in
  let spec =
    match Faults.spec_of_string "miss=1.0" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let faults = Faults.create spec in
  let vm = Hypervisor.Vm.create ~faults group in
  let missed = Executor.run_preemption vm child in
  checki "a switch was missed" 1 (Faults.counts faults).n_miss;
  checkb "the miss taints the attempt" true (Faults.tainted faults);
  checkb "the child ran as the serial order" true
    (same_outcome missed.outcome serial);
  ignore (Executor.run_plan vm (Schedule.plan (iids_of serial)));
  checki "a plan event was missed too" 2 (Faults.counts faults).n_miss

(* --- CLI and manifest helpers ---------------------------------------------- *)

let cli =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "aitia_cli.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the CLI; its exit code, stdout and stderr. *)
let run_cli args =
  let out = Filename.temp_file "aitia-cli" ".out" in
  let err = Filename.temp_file "aitia-cli" ".err" in
  let code =
    Sys.command (Filename.quote_command cli ~stdout:out ~stderr:err args)
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* Run `aitia batch MANIFEST ARGS --out FILE`: its exit code, each
   request's report fields but its elapsed time, and its stderr. *)
let run_batch manifest_file args =
  let out = Filename.temp_file "aitia-batch" ".report.json" in
  let code, _, err =
    run_cli ([ "batch"; manifest_file; "--out"; out ] @ args)
  in
  let module J = Telemetry.Json in
  let report =
    match J.of_string (read_file out) with
    | Ok j -> j
    | Error e -> Alcotest.failf "batch report: %s" e
  in
  Sys.remove out;
  let outcomes =
    match J.member "requests" report with
    | Some (J.Arr rs) ->
      List.map
        (function
          | J.Obj kvs -> J.render (J.Obj (List.remove_assoc "elapsed_s" kvs))
          | r -> J.render r)
        rs
    | _ -> Alcotest.fail "batch report has no requests"
  in
  (code, outcomes, err)

let registry_case id =
  Option.map
    (fun (b : Bugs.Bug.t) -> (b.case (), b.max_interleavings))
    (Bugs.Registry.find id)

let manifest doc =
  match Aitia.Batch.manifest_of_string doc with
  | Ok rqs -> rqs
  | Error e -> Alcotest.failf "manifest: %s" e

(* --- unit: journal load/save --------------------------------------------- *)

let test_journal_files () =
  let missing = Filename.temp_file "aitia-journal-missing" ".json" in
  Sys.remove missing;
  (match Journal.load missing with
  | Ok j -> checkb "missing file is a fresh journal" true (Journal.path j = missing)
  | Error e -> Alcotest.failf "missing file must not error: %s" e);
  let garbage = Filename.temp_file "aitia-journal-garbage" ".json" in
  let oc = open_out garbage in
  output_string oc "{\"cases\": [truncated";
  close_out oc;
  (match Journal.load garbage with
  | Ok _ -> Alcotest.fail "malformed journal must be an Error"
  | Error _ -> ());
  Sys.remove garbage;
  (match Journal.load (Filename.get_temp_dir_name ()) with
  | Ok _ -> Alcotest.fail "an unreadable path must be an Error"
  | Error _ -> ());
  (* Journals once carried the host time of Causality Analysis as
     "ca"."elapsed"; it is no longer written, and still loads. *)
  let legacy = Filename.temp_file "aitia-journal-legacy" ".json" in
  Out_channel.with_open_text legacy (fun oc ->
      Out_channel.output_string oc
        {|{"version": 1, "cases": {"c": {"complete": true, "slices": [
           {"kind": "reproduced", "threads": ["a"],
            "schedule": {"order": [0], "switches": []},
            "lifs": {"schedules": 1, "pruned": 0, "static_pruned": 0,
                     "interleavings": 0, "simulated": 0.5,
                     "executed_instrs": 9},
            "races": [], "flips": [],
            "ca": {"schedules": 0, "simulated": 0, "instrs": 0,
                   "elapsed": 1.5, "complete": true}}]}}}|});
  (match Journal.load legacy with
  | Ok j ->
    (match Journal.find_case j "c" with
    | Some { slices = [ Journal.Reproduced r ]; _ } ->
      checkb "a journal with \"ca\".\"elapsed\" loads" true
        (r.r_lifs.executed_instrs = 9 && r.r_ca_complete);
      (* written before LIFS derived trace-equivalent runs: none were *)
      checki "no \"trace_equivalent\" loads as 0" 0
        r.r_lifs.trace_equivalent;
      (* and the count survives a save and a load *)
      Journal.set_case j "c"
        { Journal.slices =
            [ Journal.Reproduced
                { r with r_lifs = { r.r_lifs with trace_equivalent = 424 } }
            ];
          complete = true };
      Journal.save j;
      (match Journal.load legacy with
      | Ok j' -> (
        match Journal.find_case j' "c" with
        | Some { slices = [ Journal.Reproduced r' ]; _ } ->
          checki "\"trace_equivalent\" reloads" 424
            r'.r_lifs.trace_equivalent
        | _ -> Alcotest.fail "saved journal lost its case")
      | Error e -> Alcotest.failf "saved journal: %s" e)
    | _ -> Alcotest.fail "legacy journal lost its case")
  | Error e -> Alcotest.failf "legacy journal: %s" e);
  Sys.remove legacy;
  (* A journal whose directory is missing is refused up front: an
     Error from open_, exit 2 from the CLI, and a failed batch request
     naming the directory. *)
  let nowhere = Filename.concat (missing ^ ".d") "x.json" in
  List.iter
    (fun resume ->
      match Journal.open_ ~resume (Some nowhere) with
      | Ok _ -> Alcotest.failf "resume=%b: missing directory accepted" resume
      | Error e ->
        checkb "error names the directory" true
          (String.starts_with ~prefix:"cannot journal" e))
    [ false; true ];
  let code, _, _ = run_cli [ "diagnose"; "fig1"; "--journal"; nowhere ] in
  checki "CLI: missing journal directory is a usage error" 2 code;
  let s =
    Aitia.Batch.run ~resolve:registry_case
      (manifest
         (Fmt.str {|[{"id": "r1", "bug": "fig1", "journal": %S}]|} nowhere))
  in
  match s.outcomes with
  | [ r1 ] ->
    checki "batch: request error" 2 r1.o_exit;
    checkb "batch: error names the directory" true
      (match r1.o_error with
      | Some e -> String.starts_with ~prefix:"cannot journal" e
      | None -> false)
  | _ -> Alcotest.fail "expected one outcome"

(* Batch.run creates a missing journal directory itself; when it cannot,
   the requests journaling there fail with exit 2 and nothing else. *)
let test_batch_creates_journal_dir () =
  let base = Filename.temp_file "aitia-batch" "" in
  Sys.remove base;
  let dir = base ^ ".d" in
  let s =
    Aitia.Batch.run ~journal_dir:dir ~resolve:registry_case
      (manifest {|[{"id": "r1", "bug": "fig1"}]|})
  in
  checkb "directory created" true (Sys.is_directory dir);
  let journal = Filename.concat dir "r1.journal.json" in
  checkb "journal written inside it" true (Sys.file_exists journal);
  checki "request diagnosed" 0 s.batch_exit;
  let own = base ^ ".own.json" in
  let s =
    Aitia.Batch.run
      ~journal_dir:(Filename.concat (dir ^ ".missing") "sub")
      ~resolve:registry_case
      (manifest
         (Fmt.str
            {|[{"id": "r1", "bug": "fig1"},
               {"id": "r2", "bug": "fig1", "journal": %S}]|}
            own))
  in
  (match s.outcomes with
  | [ r1; r2 ] ->
    checki "uncreatable directory: request error" 2 r1.o_exit;
    checkb "error names the directory" true
      (match r1.o_error with
      | Some e -> String.starts_with ~prefix:"cannot create" e
      | None -> false);
    checki "own journal path still runs" 0 r2.o_exit
  | _ -> Alcotest.fail "expected two outcomes");
  List.iter Sys.remove [ journal; own ];
  Sys.rmdir dir

(* batch --resume needs no --journal-dir when requests name their own
   journals: the resumed batch reports the same chains and exit codes,
   and only a request with no journal at all fails. *)
let test_batch_resume_own_journals () =
  let base = Filename.temp_file "aitia-batch-resume" "" in
  let j1 = base ^ ".r1.json" and j2 = base ^ ".r2.json" in
  let doc =
    Fmt.str
      {|[{"id": "r1", "bug": "fig1", "journal": %S},
         {"id": "r2", "bug": "fig5", "journal": %S}]|}
      j1 j2
  in
  let manifest_file = base ^ ".manifest.json" in
  Out_channel.with_open_text manifest_file (fun oc ->
      Out_channel.output_string oc doc);
  let batch args =
    let code, outcomes, _ = run_batch manifest_file args in
    (code, outcomes)
  in
  let fresh_code, fresh = batch [] in
  checki "fresh batch diagnoses" 0 fresh_code;
  checkb "journals written" true (Sys.file_exists j1 && Sys.file_exists j2);
  let resumed_code, resumed = batch [ "--resume" ] in
  checki "resumed batch exit" fresh_code resumed_code;
  checkb "resumed batch reports the same chains and exit codes" true
    (fresh = resumed);
  let no_journal =
    Aitia.Batch.run ~resume:true ~resolve:registry_case
      (manifest
         (Fmt.str
            {|[{"id": "r1", "bug": "fig1", "journal": %S},
               {"id": "r3", "bug": "fig1"}]|}
            j1))
  in
  (match no_journal.outcomes with
  | [ r1; r3 ] ->
    checki "request with its own journal resumes" 0 r1.o_exit;
    checki "request with no journal fails" 2 r3.o_exit;
    checkb "error says a journal is needed" true
      (match r3.o_error with
      | Some e -> String.starts_with ~prefix:"--resume needs a journal" e
      | None -> false)
  | _ -> Alcotest.fail "expected two outcomes");
  List.iter Sys.remove [ j1; j2; manifest_file; base ]

let test_journal_fixpoint () =
  (* A journaled diagnosis, loaded and saved again, round-trips to the
     same entries: the parser and printer agree. *)
  let bug = Bugs.Fig1_nullderef.bug in
  let path = Filename.temp_file "aitia-journal-fix" ".json" in
  let j = Journal.create path in
  let r = Aitia.Diagnose.diagnose ~journal:j (bug.case ()) in
  checkb "diagnosed" true (Aitia.Diagnose.reproduced r);
  let j1 =
    match Journal.load path with
    | Ok j -> j
    | Error e -> Alcotest.failf "reload: %s" e
  in
  let e1 = Journal.find_case j1 r.case.case_name in
  checkb "case journaled" true (e1 <> None);
  (match e1 with
  | Some e ->
    checkb "case complete" true e.complete;
    checki "one slice per attempt" r.slices_tried (List.length e.slices);
    (match List.rev e.slices with
    | Journal.Reproduced rs :: _ ->
      checkb "every flip journaled" true
        (match r.causality with
        | Some ca -> List.length rs.r_flips = List.length ca.tested
        | None -> false);
      checkb "causality marked complete" true rs.r_ca_complete
    | _ -> Alcotest.fail "last slice must be the reproducing one")
  | None -> ());
  Journal.save j1;
  let j2 =
    match Journal.load path with
    | Ok j -> j
    | Error e -> Alcotest.failf "second reload: %s" e
  in
  checkb "save/load is a fixpoint" true
    (Journal.find_case j2 r.case.case_name = e1);
  Sys.remove path

(* --- unit: exit codes ------------------------------------------------------ *)

let test_exit_status () =
  let bug = Bugs.Fig1_nullderef.bug in
  let ok = Aitia.Diagnose.diagnose (bug.case ()) in
  checkb "fig1 diagnoses cleanly" true
    (Aitia.Diagnose.reproduced ok && not ok.degraded);
  let norepro = Aitia.Diagnose.diagnose ~max_steps:1 (bug.case ()) in
  checkb "1-step budget cannot reproduce" false
    (Aitia.Diagnose.reproduced norepro);
  let rec degraded_at seed =
    if seed > 60 then Alcotest.fail "no degrading seed found"
    else
      let faults = Faults.create ~seed (Faults.mixed 0.5) in
      let r =
        Aitia.Diagnose.diagnose ~faults ~resilience:no_retry (bug.case ())
      in
      if r.degraded then r else degraded_at (seed + 1)
  in
  let deg = degraded_at 1 in
  let exit_status reports =
    Aitia.Report.worst_exit (List.map Aitia.Report.exit_code reports)
  in
  checki "all clean => 0" 0 (exit_status [ ok ]);
  checki "clean non-reproduction => 1" 1 (exit_status [ norepro ]);
  checki "non-reproduction dominates" 1 (exit_status [ ok; norepro; deg ]);
  checki "degraded => 3" 3 (exit_status [ ok; deg ]);
  checki "empty => 0" 0 (exit_status []);
  checki "a request error dominates" 2 (Aitia.Report.worst_exit [ 3; 1; 2; 0 ])

(* --- acceptance: chaos parity across the corpus ---------------------------- *)

let clean_reports =
  lazy
    (List.map
       (fun (bug : Bugs.Bug.t) ->
         ( bug,
           Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
             (bug.case ()) ))
       corpus)

let log_counterexample ~bug ~seed ~clean ~faulted =
  let oc =
    open_out_gen
      [ Open_append; Open_creat ]
      0o644 "chaos_counterexamples.txt"
  in
  Printf.fprintf oc
    "bug=%s seed=%d spec=%s\n  clean:   %s\n  faulted: %s\n" bug seed
    (Faults.spec_to_string chaos_spec)
    clean faulted;
  close_out oc

(* Confidence annotations ([~67%]) are resilience metadata on a chain
   node, not diagnosis structure: a quorum that converged to the right
   verdict 2-to-1 still annotates.  Strip them before the structural
   comparison; raw bit-identity is additionally required whenever the
   faulted run never lost confidence (annotations then cannot exist). *)
let strip_confidence s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Buffer.contents b
    else if i + 1 < n && s.[i] = '[' && s.[i + 1] = '~' then
      match String.index_from_opt s i ']' with
      | Some j -> go (j + 1)
      | None ->
        Buffer.add_char b s.[i];
        go (i + 1)
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

let chaos_parity (bug : Bugs.Bug.t) () =
  let _, clean =
    List.find (fun (b, _) -> b == bug) (Lazy.force clean_reports)
  in
  let faults = Faults.create ~seed:chaos_seed chaos_spec in
  let faulted =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings ~faults
      (bug.case ())
  in
  let cs = chain_str clean and fs = chain_str faulted in
  if not (String.equal cs (strip_confidence fs)) then
    log_counterexample ~bug:bug.id ~seed:chaos_seed ~clean:cs ~faulted:fs;
  checks "identical causality chain under 5% faults" cs
    (strip_confidence fs);
  if not faulted.degraded then
    checks "bit-identical causality chain under 5% faults" cs fs;
  checkb "reproduction preserved" true
    (Aitia.Diagnose.reproduced clean = Aitia.Diagnose.reproduced faulted);
  (match (clean.causality, faulted.causality) with
  | Some a, Some b ->
    checki "identical root-cause count" (List.length a.root_causes)
      (List.length b.root_causes)
  | None, None -> ()
  | _ -> Alcotest.fail "faults changed whether causality analysis ran")

(* --- acceptance: retries disabled degrades visibly, never crashes ---------- *)

let test_degraded_mode () =
  let reports =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        let faults = Faults.create ~seed:chaos_seed chaos_spec in
        let r =
          Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
            ~faults ~resilience:no_retry (bug.case ())
        in
        (* Any taintable fault with a zero retry budget must surface as
           a degraded diagnosis — and only those may degrade. *)
        checkb
          (Fmt.str "%s: degraded iff a taintable fault fired" bug.id)
          (taintable (Faults.counts faults) > 0)
          r.degraded;
        r)
      corpus
  in
  let injected =
    List.fold_left (fun n (r : Aitia.Diagnose.report) -> n + r.faults_injected)
      0 reports
  in
  checkb "faults actually fired across the corpus" true (injected > 0);
  checkb "at least one diagnosis degraded" true
    (List.exists (fun (r : Aitia.Diagnose.report) -> r.degraded) reports);
  let status =
    Aitia.Report.worst_exit (List.map Aitia.Report.exit_code reports)
  in
  checkb "degradation is visible in the exit status" true
    (status = 1 || status = 3)

(* --- acceptance: journal resume ------------------------------------------- *)

let instrs_during f =
  let recorder = Telemetry.Recorder.create () in
  let v = Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder) f in
  (v, Telemetry.Recorder.counter recorder "controller.instructions", recorder)

exception Interrupted

(* A sink that raises once the (n+1)-th Causality flip closes: the
   journal then holds exactly n checkpointed flips — a deterministic
   stand-in for a kill mid-diagnosis, landing between two of the
   journal's atomic saves. *)
let interrupt_after_flips n inner =
  let seen = ref 0 in
  { inner with
    Telemetry.Sink.on_span =
      (fun s ->
        inner.Telemetry.Sink.on_span s;
        if String.equal s.Telemetry.Sink.span_name "causality.flip" then begin
          incr seen;
          if !seen > n then raise Interrupted
        end) }

let test_journal_resume () =
  let bug = Bugs.Fig5_search.bug in
  let case () = bug.case () in
  let fresh, fresh_instrs, _ =
    instrs_during (fun () -> Aitia.Diagnose.diagnose (case ()))
  in
  let fresh_s = Aitia.Report.to_string fresh in
  let path = Filename.temp_file "aitia-journal-resume" ".json" in
  let journaled, journaled_instrs, _ =
    instrs_during (fun () ->
        Aitia.Diagnose.diagnose ~journal:(Journal.create path) (case ()))
  in
  checks "journaling changes nothing in the report" fresh_s
    (Aitia.Report.to_string journaled);
  checki "journaling executes exactly the same instructions" fresh_instrs
    journaled_instrs;
  Sys.remove path;
  (* Kill the diagnosis after its first checkpointed flip, then resume:
     finished slices and journaled flips replay instead of
     re-executing. *)
  let recorder = Telemetry.Recorder.create () in
  (match
     Telemetry.Probe.with_sink
       (interrupt_after_flips 1 (Telemetry.Recorder.sink recorder))
       (fun () ->
         Aitia.Diagnose.diagnose ~journal:(Journal.create path) (case ()))
   with
  | (_ : Aitia.Diagnose.report) ->
    Alcotest.fail "diagnosis was supposed to be interrupted"
  | exception Interrupted -> ());
  (match Journal.load path with
  | Ok j -> (
    match Journal.find_case j fresh.case.case_name with
    | Some entry ->
      checkb "interrupted case is incomplete" false entry.complete
    | None -> Alcotest.fail "interrupted journal lost the case")
  | Error e -> Alcotest.failf "interrupted journal unreadable: %s" e);
  let resumed, resumed_instrs, recorder =
    instrs_during (fun () ->
        match Journal.load path with
        | Ok j -> Aitia.Diagnose.diagnose ~journal:j (case ())
        | Error e -> Alcotest.failf "resume load: %s" e)
  in
  checks "resumed report is byte-identical" fresh_s
    (Aitia.Report.to_string resumed);
  checkb
    (Fmt.str "resume executes strictly fewer instructions (%d < %d)"
       resumed_instrs fresh_instrs)
    true
    (resumed_instrs < fresh_instrs);
  checkb "journaled flips replayed" true
    (Telemetry.Recorder.counter recorder "causality.flips_replayed" > 0);
  (* Resume over the now-complete journal re-runs only the reproducing
     schedule — cheaper still. *)
  let complete, complete_instrs, _ =
    instrs_during (fun () ->
        match Journal.load path with
        | Ok j -> Aitia.Diagnose.diagnose ~journal:j (case ())
        | Error e -> Alcotest.failf "complete load: %s" e)
  in
  checks "complete-journal report is byte-identical" fresh_s
    (Aitia.Report.to_string complete);
  checkb
    (Fmt.str "complete journal replays even more (%d < %d)" complete_instrs
       resumed_instrs)
    true
    (complete_instrs < resumed_instrs);
  Sys.remove path

(* --- manifest and flag validation ---------------------------------------- *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Each malformed batch manifest is rejected with a message naming what
   is wrong. *)
let test_manifest_errors () =
  List.iter
    (fun (what, doc, needle) ->
      match Aitia.Batch.manifest_of_string doc with
      | Ok _ -> Alcotest.failf "%s: manifest accepted" what
      | Error e ->
        checkb (Fmt.str "%s: %S names %S" what e needle) true
          (contains ~sub:needle e))
    [ ( "retired prune level",
        {|[{"id": "r1", "bug": "fig5", "prune": "flipfeas"}]|},
        "prune must be none/invariants" );
      ( "unknown order",
        {|[{"id": "r1", "bug": "fig5", "order": "forward"}]|},
        "order must be backward/gain" );
      ( "unknown field",
        {|[{"id": "r1", "bug": "fig5", "bogus": 1}]|},
        {|request "r1": unknown field "bogus"|} );
      ( "retired jobs field",
        {|[{"id": "r1", "bug": "fig5", "jobs": 2}]|},
        {|request "r1": unknown field "jobs"|} );
      ( "duplicate id",
        {|[{"id": "r1", "bug": "fig5"}, {"id": "r1", "bug": "fig1"}]|},
        {|duplicate request id "r1"|} );
      ("empty manifest", "[]", "manifest has no requests");
      ( "retired engine field",
        {|[{"id": "r1", "bug": "fig5", "engine": "reference"}]|},
        {|request "r1": unknown field "engine"|} );
      ( "retired snapshot_cache field",
        {|[{"id": "r1", "bug": "fig5", "snapshot_cache": true}]|},
        {|request "r1": unknown field "snapshot_cache"|} ) ]

(* The CLI takes --prune none|invariants only: any other level is a
   usage error (exit 2) when flags are parsed. *)
let test_cli_prune_levels () =
  let run level =
    let code, _, _ = run_cli [ "diagnose"; "fig5"; "--prune"; level ] in
    code
  in
  checki "--prune invariants diagnoses" 0 (run "invariants");
  checki "--prune flipfeas is a usage error" 2 (run "flipfeas")

(* Options of the retired prefix snapshot cache and its restore fault
   kind, the engine selector (engines are chosen only through
   [Diagnose.diagnose ~engine]) and the [--log-level=debug] alias
   [--debug] are usage errors (exit 2) when flags are parsed. *)
let test_retired_options () =
  List.iter
    (fun (args, needle) ->
      let what = String.concat " " args in
      let code, _, err = run_cli args in
      checki (what ^ ": CLI exit") 2 code;
      checkb (Fmt.str "%s: %S names %S" what err needle) true
        (contains ~sub:needle err))
    [ ([ "diagnose"; "fig1"; "--snapshot-cache" ],
       "unknown option '--snapshot-cache'");
      ([ "diagnose"; "fig1"; "--snapshot-budget"; "1" ],
       "unknown option '--snapshot-budget'");
      ([ "chain"; "fig1"; "--snapshot-budget"; "1" ],
       "unknown option '--snapshot-budget'");
      ([ "diagnose"; "fig1"; "--fault-spec"; "restore=0.1" ],
       {|unknown fault kind "restore"|});
      ([ "diagnose"; "fig1"; "--engine"; "compiled" ],
       "unknown option '--engine'");
      ([ "diagnose"; "fig1"; "--debug" ], "unknown option '--debug'") ]

(* A diagnosis runs on one VM at a time: diagnose, chain and stats
   take no --jobs (only batch does), so the flag is a parse error. *)
let test_cli_no_jobs sub () =
  let code, _, err = run_cli [ sub; "fig1"; "--jobs"; "2" ] in
  checki (sub ^ " --jobs: CLI exit") 2 code;
  checkb (sub ^ " --jobs is refused at flag parsing") true
    (contains ~sub:"unknown option '--jobs'" err)

(* batch --jobs above the pool backend's recommended worker count is
   capped when flags are parsed, with one stderr line giving both
   numbers, and reports what --jobs 1 reports (elapsed times aside). *)
let test_batch_jobs_cap () =
  let manifest_file = Filename.temp_file "aitia-batch-cap" ".json" in
  Out_channel.with_open_text manifest_file (fun oc ->
      Out_channel.output_string oc
        {|[{"id": "a", "bug": "fig1"}, {"id": "b", "bug": "fig5"}]|});
  let batch jobs = run_batch manifest_file [ "--jobs"; string_of_int jobs ] in
  let most = Hypervisor.Pool.recommended_jobs in
  let code1, report1, err1 = batch 1 in
  let code, report, err = batch (most + 1) in
  checki "same exit code as --jobs 1" code1 code;
  checkb "same report as --jobs 1" true (report1 = report);
  checkb "--jobs 1 is not capped" false (contains ~sub:"capped" err1);
  checkb "the cap names both numbers" true
    (contains ~sub:(Fmt.str "--jobs %d capped at %d" (most + 1) most) err);
  Sys.remove manifest_file

(* The CLI and a one-request manifest run the same diagnosis: same
   chain, same exit code. *)
let test_cli_manifest_parity () =
  let code, out, _ =
    run_cli
      [ "diagnose"; "fig5"; "--fault-spec"; "rate=0.05"; "--fault-seed"; "7" ]
  in
  let s =
    Aitia.Batch.run ~resolve:registry_case
      (manifest
         {|[{"id": "r1", "bug": "fig5", "fault_spec": "rate=0.05",
             "fault_seed": 7}]|})
  in
  match s.outcomes with
  | [ o ] ->
    checki "same exit code" o.o_exit code;
    (match o.o_chain with
    | Some chain ->
      checkb "CLI prints the manifest's chain" true
        (contains ~sub:("causality chain:\n  " ^ chain ^ "\n") out)
    | None -> Alcotest.fail "manifest request produced no chain")
  | _ -> Alcotest.fail "expected one outcome"

(* --- suite ------------------------------------------------------------------ *)

let () =
  let parity_cases =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        Alcotest.test_case bug.id `Quick (chaos_parity bug))
      corpus
  in
  Alcotest.run "faults"
    [ ( "units",
        [ Alcotest.test_case "fault spec parsing" `Quick test_spec_parse;
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "decision points" `Quick test_decision_points;
          Alcotest.test_case "retry masks transient taints" `Quick
            test_retry_masks_taints;
          Alcotest.test_case "quorum: unanimous flap" `Quick
            test_quorum_unanimous_flap;
          Alcotest.test_case "quorum: masking and disagreement" `Quick
            test_quorum_masks_and_flags;
          Alcotest.test_case "breakpoint miss drops one scheduling point"
            `Quick test_miss_drops_switch ] );
      ( "journal",
        [ Alcotest.test_case "missing and malformed files" `Quick
            test_journal_files;
          Alcotest.test_case "save/load fixpoint" `Quick
            test_journal_fixpoint;
          Alcotest.test_case "batch creates a missing journal directory"
            `Quick test_batch_creates_journal_dir;
          Alcotest.test_case "batch resumes from per-request journals"
            `Quick test_batch_resume_own_journals ] );
      ("exit-codes", [ Alcotest.test_case "exit_status" `Quick test_exit_status ]);
      ( "validation",
        [ Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
          Alcotest.test_case "CLI prune levels" `Quick test_cli_prune_levels;
          Alcotest.test_case "retired options" `Quick test_retired_options;
          Alcotest.test_case "diagnose takes no --jobs" `Quick
            (test_cli_no_jobs "diagnose");
          Alcotest.test_case "chain takes no --jobs" `Quick
            (test_cli_no_jobs "chain");
          Alcotest.test_case "stats takes no --jobs" `Quick
            (test_cli_no_jobs "stats");
          Alcotest.test_case "batch caps --jobs" `Quick test_batch_jobs_cap;
          Alcotest.test_case "CLI and manifest parity" `Quick
            test_cli_manifest_parity ] );
      ("chaos-parity", parity_cases);
      ( "degraded-mode",
        [ Alcotest.test_case "retries disabled: visible, never crashes"
            `Quick test_degraded_mode ] );
      ( "resume",
        [ Alcotest.test_case "journal resume is cheaper and identical"
            `Quick test_journal_resume ] ) ]
