(* The telemetry subsystem: JSON parse/print, the probe facade (span
   nesting, the disabled-sink no-op contract), the recorder, Chrome
   trace-event well-formedness, the bench gate (baseline regression,
   floors, *_identical columns), and the
   corpus parity check — the metrics counters must agree with the
   Summary statistics the reports themselves carry, on every real bug. *)

module J = Telemetry.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse s =
  match J.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* --- JSON ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    J.obj
      [ ("name", J.str "a \"quoted\"\nvalue");
        ("n", J.int 42);
        ("f", J.float 2.5);
        ("ok", J.bool true);
        ("xs", J.arr [ J.int 1; J.int 2 ]);
        ("none", "null") ]
  in
  let v = parse doc in
  checks "string field survives escaping" "a \"quoted\"\nvalue"
    (match J.member "name" v with
    | Some (J.Str s) -> s
    | _ -> "?");
  checkb "int field" true (J.member "n" v = Some (J.Num 42.0));
  checkb "float field" true (J.member "f" v = Some (J.Num 2.5));
  checkb "bool field" true (J.member "ok" v = Some (J.Bool true));
  checki "array field" 2
    (match Option.bind (J.member "xs" v) J.to_list with
    | Some l -> List.length l
    | None -> -1);
  checkb "null field" true (J.member "none" v = Some J.Null);
  checkb "reparse of render agrees" true (parse (J.render v) = v)

let test_json_unicode () =
  checkb "\\uXXXX decodes to UTF-8" true
    (parse "\"\\u00e9\\u0041\"" = J.Str "\xc3\xa9A");
  checkb "whitespace tolerated" true
    (parse "  { \"a\" : [ 1 , true ] }\n"
    = J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Bool true ]) ])

let test_json_errors () =
  let bad s =
    match J.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "truncated object" true (bad "{\"a\": 1");
  checkb "trailing garbage" true (bad "1 2");
  checkb "bare word" true (bad "flse");
  checkb "empty input" true (bad "")

let test_json_float_stable () =
  checks "four decimals, always" "0.1000" (J.float 0.1);
  checks "negative" "-3.5000" (J.float (-3.5))

(* Parser error paths: truncation at every structural position must be
   a clean [Error], never an exception or a silent partial value. *)
let test_json_truncated () =
  let bad s =
    match J.of_string s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> checkb (Fmt.str "truncated %S rejected" s) true (bad s))
    [ "{"; "{\"a\""; "{\"a\":"; "{\"a\":1"; "{\"a\":1,"; "[";
      "[1"; "[1,"; "\"unterminated"; "\"esc\\"; "\"\\u00"; "tru";
      "fal"; "nul"; "-"; "1e"; "{\"a\":[1,{\"b\":"; "[[[[" ]

(* Value sequences (the journal's log): a last value cut off by the end
   of the input is dropped, at every structural position; anything
   else malformed is an Error. *)
let test_json_seq () =
  let seq s =
    match J.of_string_seq s with
    | Ok (v, vs) -> Some (v :: vs)
    | Error _ -> None
  in
  checkb "values back to back" true
    (seq "{\"a\":1}\n[2]\n3 {}"
    = Some [ parse "{\"a\":1}"; parse "[2]"; J.Num 3.; J.Obj [] ]);
  List.iter
    (fun s ->
      checkb (Fmt.str "torn %S dropped" s) true
        (seq ("{}\n" ^ s) = Some [ J.Obj [] ]))
    [ "{"; "{\"a\""; "{\"a\":"; "{\"a\":1"; "{\"a\":1,"; "[";
      "[1"; "[1,"; "\"unterminated"; "\"esc\\"; "\"\\u00"; "tru";
      "fal"; "nul"; "-"; "1e"; "{\"a\":[1,{\"b\":"; "[[[[" ];
  List.iter
    (fun s -> checkb (Fmt.str "%S rejected" s) true (seq s = None))
    [ ""; "  \n"; "{"; "flse {}"; "{} flse"; "{} {\"a\" 1} {}"; "{} x" ];
  checkb "of_string still rejects a second value" true
    (match J.of_string "{}\n{}" with Ok _ -> false | Error _ -> true)

(* Wrong-typed fields: the accessors answer [None] instead of raising,
   so report readers degrade gracefully on schema drift. *)
let test_json_wrong_types () =
  let v = parse "{\"s\":\"x\",\"n\":3,\"b\":true,\"a\":[1],\"o\":{}}" in
  let f k = J.member k v in
  checkb "to_num on a string" true (Option.bind (f "s") J.to_num = None);
  checkb "to_str on a number" true (Option.bind (f "n") J.to_str = None);
  checkb "to_bool on a number" true (Option.bind (f "n") J.to_bool = None);
  checkb "to_list on an object" true (Option.bind (f "o") J.to_list = None);
  checkb "to_list on a scalar" true (Option.bind (f "b") J.to_list = None);
  checkb "member on an array" true
    (Option.bind (f "a") (J.member "x") = None);
  checkb "member on a scalar" true
    (Option.bind (f "n") (J.member "x") = None);
  checkb "absent member" true (f "missing" = None)

(* Duplicate keys parse (the grammar allows them); [member] answers the
   first binding, deterministically. *)
let test_json_duplicate_keys () =
  let v = parse "{\"a\":1,\"b\":true,\"a\":2}" in
  checkb "first binding wins" true (J.member "a" v = Some (J.Num 1.0));
  checkb "other keys unaffected" true
    (J.member "b" v = Some (J.Bool true));
  checkb "both bindings preserved in the tree" true
    (match v with
    | J.Obj kvs -> List.length (List.filter (fun (k, _) -> k = "a") kvs) = 2
    | _ -> false)

(* --- probe: disabled no-op -------------------------------------------- *)

let test_probe_disabled () =
  Telemetry.Probe.uninstall ();
  checkb "no sink installed" false (Telemetry.Probe.installed ());
  (* Every probe is safe and inert with no sink. *)
  Telemetry.Probe.span_begin "orphan";
  Telemetry.Probe.span_end ();
  Telemetry.Probe.span_end ();
  Telemetry.Probe.count "nothing";
  Telemetry.Probe.observe "nothing" 1.0;
  checki "with_span is the identity" 7
    (Telemetry.Probe.with_span "s" (fun () -> 7));
  (* Probes left nothing behind: a fresh recorder sees only its own
     events. *)
  let r = Telemetry.Recorder.create () in
  Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
      Telemetry.Probe.count "mine");
  checkb "only the in-scope event recorded" true
    (Telemetry.Recorder.counters r = [ ("mine", 1) ])

(* --- probe: span nesting ---------------------------------------------- *)

let test_span_nesting () =
  let r = Telemetry.Recorder.create () in
  Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
      Telemetry.Probe.with_span "outer" (fun () ->
          Telemetry.Probe.with_span "inner" (fun () -> ());
          Telemetry.Probe.with_span ~args:[ ("k", "v") ] "inner2"
            (fun () -> ())));
  let spans = Telemetry.Recorder.spans r in
  checki "three spans" 3 (List.length spans);
  let by_name n =
    List.find (fun (s : Telemetry.Sink.span) -> s.span_name = n) spans
  in
  checki "outer at depth 0" 0 (by_name "outer").span_depth;
  checki "inner at depth 1" 1 (by_name "inner").span_depth;
  checkb "inner closes before outer" true
    ((by_name "outer").span_name
    = (List.nth spans 2).Telemetry.Sink.span_name);
  checkb "args preserved" true
    ((by_name "inner2").span_args = [ ("k", "v") ]);
  List.iter
    (fun (s : Telemetry.Sink.span) ->
      checkb (s.span_name ^ " duration non-negative") true
        (s.span_dur_us >= 0.0);
      checkb (s.span_name ^ " start non-negative") true
        (s.span_start_us >= 0.0))
    spans;
  checkb "inner nested within outer" true
    ((by_name "outer").span_start_us <= (by_name "inner").span_start_us)

let test_span_exception () =
  let r = Telemetry.Recorder.create () in
  (try
     Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
         Telemetry.Probe.with_span "boom" (fun () -> failwith "kaput"))
   with Failure _ -> ());
  match Telemetry.Recorder.spans r with
  | [ s ] ->
    checks "span closed despite the raise" "boom" s.span_name;
    checkb "error recorded in args" true
      (List.mem_assoc "error" s.span_args)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_manual_span_pairing () =
  let r = Telemetry.Recorder.create () in
  Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
      Telemetry.Probe.span_begin ~cat:"c" "a";
      Telemetry.Probe.span_begin "b";
      Telemetry.Probe.span_end ~args:[ ("who", "b") ] ();
      Telemetry.Probe.span_end ());
  match Telemetry.Recorder.spans r with
  | [ b; a ] ->
    checks "innermost closes first" "b" b.span_name;
    checki "b depth" 1 b.span_depth;
    checks "a second" "a" a.span_name;
    checks "a category" "c" a.span_cat
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* --- counters and histograms ------------------------------------------ *)

let test_counters_histograms () =
  let r = Telemetry.Recorder.create () in
  Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
      Telemetry.Probe.count "c";
      Telemetry.Probe.count ~by:4 "c";
      Telemetry.Probe.count "d";
      Telemetry.Probe.observe "h" 2.0;
      Telemetry.Probe.observe "h" 6.0;
      Telemetry.Probe.observe "h" 4.0);
  checki "counter accumulates" 5 (Telemetry.Recorder.counter r "c");
  checki "absent counter is 0" 0 (Telemetry.Recorder.counter r "absent");
  checkb "counters sorted by name" true
    (Telemetry.Recorder.counters r = [ ("c", 5); ("d", 1) ]);
  match Telemetry.Recorder.histogram r "h" with
  | None -> Alcotest.fail "histogram h missing"
  | Some h ->
    checki "count" 3 h.h_count;
    checkb "sum" true (h.h_sum = 12.0);
    checkb "min" true (h.h_min = 2.0);
    checkb "max" true (h.h_max = 6.0)

(* --- Chrome trace well-formedness ------------------------------------- *)

let test_chrome_trace () =
  let r = Telemetry.Recorder.create () in
  Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
      Telemetry.Probe.with_span ~cat:"test" "outer" (fun () ->
          Telemetry.Probe.with_span "inner" (fun () -> ()));
      Telemetry.Probe.count ~by:3 "widgets");
  let doc = parse (Telemetry.Chrome_trace.to_string r) in
  let events =
    match Option.bind (J.member "traceEvents" doc) J.to_list with
    | Some es -> es
    | None -> Alcotest.fail "no traceEvents array"
  in
  (* 2 spans + 1 counter sample *)
  checki "event count" 3 (List.length events);
  let field e k = J.member k e in
  let phase e = match field e "ph" with Some (J.Str p) -> p | _ -> "?" in
  List.iter
    (fun e ->
      checkb "every event has a name" true
        (match field e "name" with Some (J.Str _) -> true | _ -> false);
      checkb "every event has a numeric ts" true
        (match field e "ts" with Some (J.Num _) -> true | _ -> false);
      checkb "pid and tid present" true
        (field e "pid" <> None && field e "tid" <> None);
      if phase e = "X" then
        checkb "complete events carry dur >= 0" true
          (match field e "dur" with Some (J.Num d) -> d >= 0.0 | _ -> false))
    events;
  let phases = List.sort_uniq compare (List.map phase events) in
  checkb "X and C phases both present" true (phases = [ "C"; "X" ]);
  (* Events are sorted by timestamp — what chrome://tracing expects. *)
  let ts = List.filter_map (fun e -> Option.bind (field e "ts") J.to_num) events in
  checkb "sorted by ts" true (List.sort compare ts = ts);
  checkb "displayTimeUnit set" true
    (J.member "displayTimeUnit" doc = Some (J.Str "ms"))

let test_metrics_export () =
  let r = Telemetry.Recorder.create () in
  Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
      Telemetry.Probe.count ~by:2 "c";
      Telemetry.Probe.observe "h" 3.0;
      Telemetry.Probe.with_span "s" (fun () -> ()));
  let doc = parse (Telemetry.Metrics.to_string r) in
  checkb "counter exported" true
    (Option.bind (J.member "counters" doc) (J.member "c")
    = Some (J.Num 2.0));
  checkb "histogram mean exported" true
    (match
       Option.bind (J.member "histograms" doc) (J.member "h")
       |> Fun.flip Option.bind (J.member "mean")
     with
    | Some (J.Num m) -> m = 3.0
    | _ -> false);
  checkb "span rollup exported" true
    (match
       Option.bind (J.member "spans" doc) (J.member "s")
       |> Fun.flip Option.bind (J.member "count")
     with
    | Some (J.Num 1.0) -> true
    | _ -> false)

(* --- the overhead contract: no sink => bit-identical reports ----------- *)

let test_bit_identical_no_sink () =
  let bug = Bugs.Fig1_nullderef.bug in
  let chain_of (r : Aitia.Diagnose.report) =
    match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"
  in
  Telemetry.Probe.uninstall ();
  let plain = Aitia.Diagnose.diagnose ~prune:`Invariants (bug.case ()) in
  let recorder = Telemetry.Recorder.create () in
  let traced =
    Telemetry.Probe.with_sink (Telemetry.Recorder.sink recorder) (fun () ->
        Aitia.Diagnose.diagnose ~prune:`Invariants (bug.case ()))
  in
  checkb "tracing actually happened" true
    (Telemetry.Recorder.counter recorder "lifs.schedules" > 0);
  checks "identical chain" (chain_of plain) (chain_of traced);
  checki "identical schedules" plain.lifs.stats.schedules
    traced.lifs.stats.schedules;
  checki "identical interleavings" plain.lifs.stats.interleavings
    traced.lifs.stats.interleavings;
  checkb "identical simulated time" true
    (plain.lifs.stats.simulated = traced.lifs.stats.simulated);
  match plain.causality, traced.causality with
  | Some p, Some t ->
    checki "identical flips" (List.length p.tested) (List.length t.tested);
    checki "identical CA schedules" p.stats.schedules t.stats.schedules
  | _ -> Alcotest.fail "fig1 must diagnose"

(* --- corpus parity: counters == Summary stats on every real bug -------- *)

let corpus_parity (bug : Bugs.Bug.t) () =
  let r = Telemetry.Recorder.create () in
  let report =
    Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~prune:`Invariants (bug.case ()))
  in
  let c = Telemetry.Recorder.counter r in
  checkb "reproduced" true (Aitia.Diagnose.reproduced report);
  (* Causality Analysis runs exactly once (on the reproducing slice), so
     its counters must equal the report's own statistics exactly. *)
  (match report.causality with
  | None -> Alcotest.fail "no causality result"
  | Some ca ->
    let flips = List.length ca.tested in
    let pruned = ca.stats.flips_statically_pruned in
    checki "causality.flips counter" flips (c "causality.flips");
    checki "pruned/ca_static counter" pruned (c "pruned/ca_static");
    checki "causality.flips_executed counter" (flips - pruned)
      (c "causality.flips_executed");
    checki "causality.root_causes counter" (List.length ca.root_causes)
      (c "causality.root_causes"));
  (* LIFS counters accumulate over every slice tried; the report keeps
     only the reproducing slice's stats.  Equality holds when the first
     slice reproduced, a lower bound otherwise. *)
  if report.slices_tried = 1 then
    checki "lifs.schedules counter" report.lifs.stats.schedules
      (c "lifs.schedules")
  else
    checkb "lifs.schedules counter covers the reproducing slice" true
      (c "lifs.schedules" >= report.lifs.stats.schedules);
  checki "diagnose.slices counter" report.slices_tried
    (c "diagnose.slices");
  checkb "every schedule ran through the controller" true
    (c "controller.runs" >= c "lifs.schedules")

let corpus_cases () =
  List.map
    (fun (bug : Bugs.Bug.t) ->
      Alcotest.test_case bug.id `Quick (corpus_parity bug))
    (Bugs.Registry.cves @ Bugs.Registry.syzkaller)

(* --- the perf gate ----------------------------------------------------- *)

let row ~bug ~flips ~sim ~identical =
  J.Obj
    [ ("bug", J.Str bug);
      ("flips", J.Num (float_of_int flips));
      ("sim", J.Num sim);
      ("chain_identical", J.Bool identical) ]

let baseline_rows =
  [ row ~bug:"a" ~flips:4 ~sim:2.0 ~identical:true;
    row ~bug:"b" ~flips:10 ~sim:5.0 ~identical:true ]

let gate ?tolerance fresh =
  Telemetry.Gate.compare_rows ?tolerance ~id_key:"bug"
    ~baseline:baseline_rows ~fresh ()

let test_gate_pass () =
  let v = gate baseline_rows in
  checkb "identical doc passes" true v.gate_ok;
  checkb "comparisons counted" true (v.checked > 0)

let test_gate_regression () =
  let v =
    gate
      [ row ~bug:"a" ~flips:7 ~sim:2.0 ~identical:true;
        row ~bug:"b" ~flips:10 ~sim:5.0 ~identical:true ]
  in
  checkb "regression fails" false v.gate_ok;
  checki "one violation" 1 (List.length v.violations)

let test_gate_tolerance () =
  let fresh =
    [ row ~bug:"a" ~flips:4 ~sim:2.05 ~identical:true;
      row ~bug:"b" ~flips:10 ~sim:5.0 ~identical:true ]
  in
  checkb "2.5% slip passes at 5%" true (gate ~tolerance:0.05 fresh).gate_ok;
  checkb "2.5% slip fails at 1%" false
    (gate ~tolerance:0.01 fresh).gate_ok

let test_gate_invariant () =
  let v =
    gate
      [ row ~bug:"a" ~flips:4 ~sim:2.0 ~identical:false;
        row ~bug:"b" ~flips:10 ~sim:5.0 ~identical:true ]
  in
  checkb "broken boolean invariant fails" false v.gate_ok

let test_gate_missing_row () =
  let v = gate [ row ~bug:"a" ~flips:4 ~sim:2.0 ~identical:true ] in
  checkb "missing bug fails" false v.gate_ok;
  let v' =
    gate
      (baseline_rows @ [ row ~bug:"extra" ~flips:1 ~sim:1.0 ~identical:true ])
  in
  checkb "extra fresh row is fine" true v'.gate_ok

(* The fresh-side checks: floors and [*_identical] columns need no
   baseline row to be gated. *)
let engine_row speedup =
  J.Obj [ ("bug", J.Str "_engine"); ("corpus_engine_speedup", J.Num speedup) ]

let floors = [ ("corpus_engine_speedup", 5.0) ]

let test_gate_floor () =
  let held = Telemetry.Gate.check_floors ~floors [ engine_row 5.2 ] in
  checkb "floor held" true held.gate_ok;
  checki "floored value checked" 1 held.checked;
  let v = Telemetry.Gate.check_floors ~floors [ engine_row 4.9 ] in
  checkb "floor breached fails" false v.gate_ok;
  checki "one violation" 1 (List.length v.violations)

let test_gate_floor_missing () =
  let v = Telemetry.Gate.check_floors ~floors baseline_rows in
  checkb "floored field missing fails" false v.gate_ok

let test_gate_fresh_identical () =
  let fresh_only =
    J.Obj
      [ ("bug", J.Str "a");
        ("flips", J.Num 4.0);
        ("sim", J.Num 2.0);
        ("host_elapsed_s", J.Num 1.0);
        ("chain_identical", J.Bool true);
        ("pooled_chain_identical", J.Bool false) ]
  in
  let fresh = [ fresh_only; List.nth baseline_rows 1 ] in
  checkb "baseline comparison ignores fresh-only fields" true
    (gate fresh).gate_ok;
  let v = Telemetry.Gate.check_identical fresh in
  checkb "fresh-only *_identical false fails" false v.gate_ok;
  checki "one violation" 1 (List.length v.violations);
  checkb "all-true *_identical columns pass" true
    (Telemetry.Gate.check_identical baseline_rows).gate_ok

let test_gate_docs () =
  let doc rows = J.Obj [ ("causality", J.Arr rows) ] in
  let v =
    Telemetry.Gate.compare_docs ~baseline:(doc baseline_rows)
      ~fresh:(doc baseline_rows) ()
  in
  checkb "merged-object documents compare" true v.gate_ok;
  let v' =
    Telemetry.Gate.compare_docs ~baseline:(J.Arr baseline_rows)
      ~fresh:(doc baseline_rows) ()
  in
  checkb "bare-array baseline rejected" false v'.gate_ok

let () =
  Alcotest.run "telemetry"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode + whitespace" `Quick
            test_json_unicode;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "stable floats" `Quick test_json_float_stable;
          Alcotest.test_case "truncated inputs" `Quick test_json_truncated;
          Alcotest.test_case "value sequences" `Quick test_json_seq;
          Alcotest.test_case "wrong-typed fields" `Quick
            test_json_wrong_types;
          Alcotest.test_case "duplicate keys" `Quick
            test_json_duplicate_keys ] );
      ( "probe",
        [ Alcotest.test_case "disabled is a no-op" `Quick
            test_probe_disabled;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception;
          Alcotest.test_case "manual begin/end pairing" `Quick
            test_manual_span_pairing;
          Alcotest.test_case "counters and histograms" `Quick
            test_counters_histograms ] );
      ( "export",
        [ Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace;
          Alcotest.test_case "metrics json" `Quick test_metrics_export ] );
      ( "overhead",
        [ Alcotest.test_case "no sink => bit-identical" `Quick
            test_bit_identical_no_sink ] );
      ("corpus-parity", corpus_cases ());
      ( "gate",
        [ Alcotest.test_case "pass" `Quick test_gate_pass;
          Alcotest.test_case "regression" `Quick test_gate_regression;
          Alcotest.test_case "tolerance" `Quick test_gate_tolerance;
          Alcotest.test_case "invariant" `Quick test_gate_invariant;
          Alcotest.test_case "missing row" `Quick test_gate_missing_row;
          Alcotest.test_case "documents" `Quick test_gate_docs;
          Alcotest.test_case "floor" `Quick test_gate_floor;
          Alcotest.test_case "floor missing" `Quick test_gate_floor_missing;
          Alcotest.test_case "fresh-only identical" `Quick
            test_gate_fresh_identical ] ) ]
