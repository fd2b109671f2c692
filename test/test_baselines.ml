(* Tests for the prior-work comparators: Kairux, cooperative bug
   localization, MUVI, and the Table-1 / §5.3 scoring. *)

module Iid = Ksim.Access.Iid

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let diagnose ?on_run (bug : Bugs.Bug.t) =
  Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings ?on_run
    (bug.case ())

let evidence (bug : Bugs.Bug.t) =
  match
    snd (Baselines.Requirements.diagnose (fun ~on_run -> diagnose ~on_run bug))
  with
  | Some ev -> ev
  | None -> Alcotest.failf "%s not diagnosed" bug.id

let capability (bug : Bugs.Bug.t) =
  Baselines.Requirements.capability
    ~single_variable:(bug.variables = Bugs.Bug.Single)
    (evidence bug)

(* --- Kairux ------------------------------------------------------------- *)

let test_kairux_lcp () =
  let mk labels =
    List.map (fun l -> Iid.make ~tid:0 ~label:l ~occ:1) labels
  in
  checki "prefix length" 2
    (Baselines.Kairux.common_prefix_length
       (mk [ "a"; "b"; "c" ])
       (mk [ "a"; "b"; "x" ]))

let test_kairux_inflection_point () =
  let ev = evidence Bugs.Fig1_nullderef.bug in
  let r =
    Baselines.Kairux.analyze ~failing:ev.failing ~passing:ev.passing
  in
  checkb "found an inflection point" true (r.inflection <> None);
  checkb "deviates after a shared prefix" true (r.lcp_length > 0)

let test_kairux_single_instruction_insufficient () =
  (* Multi-race chains cannot be covered by one instruction. *)
  let cap = capability Bugs.Cve_2017_15649.bug in
  checkb "kairux fails on multi-variable" false cap.cap_kairux

(* --- Cooperative bug localization ----------------------------------------- *)

let test_cbl_finds_order_violation () =
  let ev = evidence Bugs.Syz_05_rxrpc_uaf.bug in
  let r =
    Baselines.Coop_bug_localization.analyze ~failing:[ ev.failing ]
      ~passing:
        (ev.passing
        @ Baselines.Requirements.production_runs ev.report.case.group)
  in
  match Baselines.Coop_bug_localization.top r with
  | Some { pattern = Baselines.Coop_bug_localization.Order_violation _; score; _ }
    ->
    checkb "perfectly correlated" true (score > 0.9)
  | Some _ -> Alcotest.fail "expected an order violation on top"
  | None -> Alcotest.fail "no pattern"

let test_cbl_handles_single_variable_bugs () =
  List.iter
    (fun bug ->
      let cap = capability bug in
      checkb (bug.Bugs.Bug.id ^ " diagnosed by CBL") true cap.cap_cbl)
    [ Bugs.Syz_05_rxrpc_uaf.bug; Bugs.Syz_11_floppy_warn.bug;
      Bugs.Syz_12_bluetooth_uaf.bug ]

let test_cbl_fails_multi_variable_bugs () =
  List.iter
    (fun bug ->
      let cap = capability bug in
      checkb (bug.Bugs.Bug.id ^ " beyond CBL") false cap.cap_cbl)
    [ Bugs.Syz_03_l2tp_uaf.bug; Bugs.Syz_06_bpf_gpf.bug;
      Bugs.Syz_08_can_j1939.bug ]

(* --- MUVI ------------------------------------------------------------------ *)

let test_muvi_infers_tight_correlation () =
  let ev = evidence Bugs.Cve_2017_7533.bug in
  let r = Baselines.Muvi.analyze (ev.failing :: ev.passing) in
  checkb "(len, ptr) correlated" true
    (Baselines.Muvi.inferred r (Ksim.Addr.Global "d_name_len")
       (Ksim.Addr.Global "d_name_ptr"))

let test_muvi_explains_tight_multis_only () =
  let expect_yes =
    [ Bugs.Syz_03_l2tp_uaf.bug; Bugs.Syz_06_bpf_gpf.bug;
      Bugs.Syz_08_can_j1939.bug ]
  in
  let expect_no =
    [ Bugs.Syz_01_l2tp_oob.bug (* loose *); Bugs.Syz_09_seccomp_leak.bug
      (* loose *); Bugs.Syz_05_rxrpc_uaf.bug (* single *) ]
  in
  List.iter
    (fun bug ->
      checkb (bug.Bugs.Bug.id ^ " within MUVI") true (capability bug).cap_muvi)
    expect_yes;
  List.iter
    (fun bug ->
      checkb
        (bug.Bugs.Bug.id ^ " outside MUVI")
        false (capability bug).cap_muvi)
    expect_no

(* --- DataCollider ------------------------------------------------------------ *)

let test_data_collider_finds_races () =
  let bug = Bugs.Cve_2017_15649.bug in
  let case = bug.case () in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | None -> Alcotest.fail "no slice"
  | Some (group, prologue) ->
    let r = Baselines.Data_collider.detect ~rounds:48 ~prologue group in
    checkb "placed traps" true (r.traps_placed = 48);
    checkb "detected races" true (List.length r.races > 0);
    (* Reports are deduplicated static pairs. *)
    let keys = List.map Baselines.Data_collider.race_key r.races in
    checki "deduplicated" (List.length keys)
      (List.length (List.sort_uniq String.compare keys))

let test_data_collider_benign_burden () =
  (* Most of what a sampling detector reports is benign — the Sec. 2.3
     motivation for Causality Analysis. *)
  let bug = Bugs.Cve_2018_12232.bug in
  let case = bug.case () in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | None -> Alcotest.fail "no slice"
  | Some (group, prologue) ->
    let r = Baselines.Data_collider.detect ~rounds:64 ~prologue group in
    let report = diagnose bug in
    (match report.chain with
    | None -> Alcotest.fail "no chain"
    | Some chain ->
      let frac = Baselines.Data_collider.benign_fraction r chain in
      checkb "mostly benign" true (frac > 0.5))

(* --- Table 1 ---------------------------------------------------------------- *)

let test_table1_shape () =
  let caps =
    List.map capability
      [ Bugs.Syz_03_l2tp_uaf.bug; Bugs.Syz_05_rxrpc_uaf.bug;
        Bugs.Syz_06_bpf_gpf.bug; Bugs.Syz_11_floppy_warn.bug ]
  in
  let scores = Baselines.Requirements.table1 caps in
  let find tool =
    List.find
      (fun (s : Baselines.Requirements.score) ->
        String.length s.tool >= String.length tool
        && String.sub s.tool 0 (String.length tool) = tool)
      scores
  in
  let aitia = find "AITIA" in
  checkb "AITIA comprehensive" true
    (aitia.comprehensive = Baselines.Requirements.Satisfied);
  checkb "AITIA concise" true
    (aitia.concise = Baselines.Requirements.Satisfied);
  let kairux = find "Kairux" in
  checkb "Kairux not comprehensive" true
    (kairux.comprehensive <> Baselines.Requirements.Satisfied);
  checkb "Kairux pattern-agnostic" true
    (kairux.pattern_agnostic = Baselines.Requirements.Satisfied);
  let cbl = find "CBL" in
  checkb "CBL pattern-bound" true
    (cbl.pattern_agnostic = Baselines.Requirements.Unsatisfied);
  let rept = find "Failure reproduction" in
  checkb "replay not concise" true
    (rept.concise = Baselines.Requirements.Unsatisfied)

(* --- §5.3 full sweep --------------------------------------------------------- *)

let test_section_5_3_totals () =
  let caps =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        Baselines.Requirements.capability
          ~single_variable:(bug.variables = Bugs.Bug.Single)
          (evidence bug))
      Bugs.Registry.syzkaller
  in
  let count f = List.length (List.filter f caps) in
  checki "AITIA diagnoses all 12" 12
    (count (fun c -> c.Baselines.Requirements.cap_aitia));
  (* "Snorlax and Gist cannot diagnose the half of bugs" *)
  checki "CBL diagnoses the single-variable half" 6
    (count (fun c -> c.Baselines.Requirements.cap_cbl));
  (* "only 3 out of 12 failures satisfy the assumption of MUVI" *)
  checki "MUVI explains 3" 3
    (count (fun c -> c.Baselines.Requirements.cap_muvi))

let () =
  Alcotest.run "baselines"
    [ ( "kairux",
        [ Alcotest.test_case "lcp" `Quick test_kairux_lcp;
          Alcotest.test_case "inflection point" `Quick
            test_kairux_inflection_point;
          Alcotest.test_case "single instruction" `Quick
            test_kairux_single_instruction_insufficient ] );
      ( "cbl",
        [ Alcotest.test_case "order violation" `Quick
            test_cbl_finds_order_violation;
          Alcotest.test_case "single-variable ok" `Quick
            test_cbl_handles_single_variable_bugs;
          Alcotest.test_case "multi-variable fails" `Quick
            test_cbl_fails_multi_variable_bugs ] );
      ( "muvi",
        [ Alcotest.test_case "tight correlation" `Quick
            test_muvi_infers_tight_correlation;
          Alcotest.test_case "assumption boundary" `Quick
            test_muvi_explains_tight_multis_only ] );
      ( "data-collider",
        [ Alcotest.test_case "finds races" `Quick
            test_data_collider_finds_races;
          Alcotest.test_case "benign burden" `Quick
            test_data_collider_benign_burden ] );
      ( "scoring",
        [ Alcotest.test_case "table 1" `Quick test_table1_shape;
          Alcotest.test_case "section 5.3" `Quick test_section_5_3_totals ]
      ) ]
