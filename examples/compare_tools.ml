(* Run the prior-work comparators on one bug and regenerate the Table 1
   requirements matrix over the Syzkaller corpus (§5.3 / Table 1).

     dune exec examples/compare_tools.exe *)

let () =
  (* One bug in detail: the tight multi-variable L2TP UAF (#3). *)
  let bug = Bugs.Syz_03_l2tp_uaf.bug in
  Fmt.pr "=== baselines on %s ===@." bug.id;
  let diagnose (bug : Bugs.Bug.t) =
    snd
      (Baselines.Requirements.diagnose (fun ~on_run ->
           Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
             ~on_run (bug.case ())))
  in
  let ev =
    match diagnose bug with
    | Some ev -> ev
    | None -> failwith "not diagnosed"
  in
  let chain = Baselines.Requirements.chain_of ev in
  Fmt.pr "ground truth (AITIA): %a@.@." Aitia.Chain.pp chain;

  let passing =
    ev.passing @ Baselines.Requirements.production_runs ev.report.case.group
  in
  (* Kairux: a single inflection point. *)
  let kairux = Baselines.Kairux.analyze ~failing:ev.failing ~passing in
  Fmt.pr "Kairux:  %a@." Baselines.Kairux.pp kairux;
  Fmt.pr "         covers the chain? %b (a single instruction cannot)@.@."
    (Baselines.Kairux.covers_chain kairux chain);

  (* Cooperative bug localization: top statistical pattern. *)
  let cbl =
    Baselines.Coop_bug_localization.analyze ~failing:[ ev.failing ] ~passing
  in
  (match Baselines.Coop_bug_localization.top cbl with
  | Some s ->
    Fmt.pr "CBL:     top pattern %a (score %.2f)@."
      Baselines.Coop_bug_localization.pp_pattern s.pattern s.score
  | None -> Fmt.pr "CBL:     no pattern@.");
  Fmt.pr
    "         covers the chain? %b (multi-variable: outside the pattern \
     set)@.@."
    (Baselines.Coop_bug_localization.covers_chain ~single_variable:false cbl
       chain);

  (* MUVI: inferred variable correlations. *)
  let muvi = Baselines.Muvi.analyze (ev.failing :: passing) in
  Fmt.pr "MUVI:    %a@." Baselines.Muvi.pp muvi;
  Fmt.pr "         covers the chain? %b (a tight multi-variable pair)@.@."
    (Baselines.Muvi.covers_chain muvi chain);

  (* Table 1 over the whole Syzkaller corpus. *)
  Fmt.pr "=== Table 1 over the 12 Syzkaller bugs ===@.";
  let caps =
    List.filter_map
      (fun (bug : Bugs.Bug.t) ->
        Option.map
          (Baselines.Requirements.capability
             ~single_variable:(bug.variables = Bugs.Bug.Single))
          (diagnose bug))
      Bugs.Registry.syzkaller
  in
  Fmt.pr "%-30s %-6s %-6s %-6s@." "tool" "compr." "p-agn." "concise";
  List.iter
    (fun s -> Fmt.pr "%a@." Baselines.Requirements.pp_score s)
    (Baselines.Requirements.table1 caps)
