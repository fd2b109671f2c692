(* CI pruning-parity gate: --prune=invariants must never make a
   diagnosis slower than the --prune=flipfeas baseline it extends.

     pruning_gate BENCH [-o ARTIFACT]

   BENCH is a bench metrics document (bare row array or the merged
   object bench/main.exe --json writes, keyed "causality").  For every
   bug row the gate requires

     - inv_executed_schedules <= executed_schedules (the --prune=flipfeas
       baseline),
     - inv_instrs <= hinted_instrs (guest instructions stepped, counted
       by the controller, so no run escapes the comparison), and
     - inv_chain_identical (the chain under --prune=invariants
       --order=gain is bit-identical to the plain diagnosis).

   Corpus-wide summary rows (bug ids starting with '_', such as
   "_engine") carry no per-bug schedule counts and are not bug rows.
   The per-bug comparison is written to ARTIFACT (default
   pruning_parity.json) for CI upload; any violation exits 1. *)

module J = Telemetry.Json

let usage () =
  Fmt.epr "usage: pruning_gate BENCH [-o ARTIFACT]@.";
  exit 2

let read_doc file =
  let ic =
    try open_in file
    with Sys_error e ->
      Fmt.epr "pruning_gate: %s@." e;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match J.of_string s with
  | Ok doc -> doc
  | Error e ->
    Fmt.epr "pruning_gate: %s: %s@." file e;
    exit 2

let rows_of doc =
  let rows =
    match doc with
    | J.Arr _ -> J.to_list doc
    | J.Obj _ -> Option.bind (J.member "causality" doc) J.to_list
    | _ -> None
  in
  match rows with
  | Some rows -> rows
  | None ->
    Fmt.epr "pruning_gate: no causality rows in the document@.";
    exit 2

let num_field row name =
  match Option.bind (J.member name row) J.to_num with
  | Some f -> int_of_float f
  | None ->
    Fmt.epr "pruning_gate: row %s lacks %S@."
      (match Option.bind (J.member "bug" row) J.to_str with
      | Some b -> b
      | None -> "?")
      name;
    exit 2

let bool_field row name =
  match Option.bind (J.member name row) J.to_bool with
  | Some b -> b
  | None ->
    Fmt.epr "pruning_gate: row lacks %S@." name;
    exit 2

let () =
  let files = ref [] in
  let artifact = ref "pruning_parity.json" in
  let rec parse = function
    | [] -> ()
    | "-o" :: v :: rest ->
      artifact := v;
      parse rest
    | [ "-o" ] -> usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest ->
      files := a :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let bench_file =
    match List.rev !files with [ f ] -> f | _ -> usage ()
  in
  let rows =
    List.filter
      (fun row ->
        match Option.bind (J.member "bug" row) J.to_str with
        | Some b -> not (String.length b > 0 && b.[0] = '_')
        | None -> true)
      (rows_of (read_doc bench_file))
  in
  let violations = ref [] in
  let out_rows =
    List.map
      (fun row ->
        let bug =
          match Option.bind (J.member "bug" row) J.to_str with
          | Some b -> b
          | None ->
            Fmt.epr "pruning_gate: row without a bug id@.";
            exit 2
        in
        let flipfeas = num_field row "executed_schedules" in
        let inv = num_field row "inv_executed_schedules" in
        let flipfeas_instrs = num_field row "hinted_instrs" in
        let inv_instrs = num_field row "inv_instrs" in
        let pruned = num_field row "invariant_pruned" in
        let chain_ok = bool_field row "inv_chain_identical" in
        let ok =
          inv <= flipfeas && inv_instrs <= flipfeas_instrs && chain_ok
        in
        if inv > flipfeas then
          violations :=
            Fmt.str "%s: %d schedule(s) with --prune=invariants vs %d with \
                     --prune=flipfeas"
              bug inv flipfeas
            :: !violations;
        if inv_instrs > flipfeas_instrs then
          violations :=
            Fmt.str "%s: %d guest instruction(s) with --prune=invariants vs \
                     %d with --prune=flipfeas"
              bug inv_instrs flipfeas_instrs
            :: !violations;
        if not chain_ok then
          violations :=
            Fmt.str "%s: chain differs under --prune=invariants" bug
            :: !violations;
        let open Analysis.Report_json in
        obj
          [ ("bug", str bug);
            ("flipfeas_schedules", int flipfeas);
            ("invariants_schedules", int inv);
            ("flipfeas_instrs", int flipfeas_instrs);
            ("invariants_instrs", int inv_instrs);
            ("invariant_pruned", int pruned);
            ("chain_identical", bool chain_ok);
            ("ok", bool ok) ])
      rows
  in
  let oc = open_out !artifact in
  output_string oc (Analysis.Report_json.arr out_rows);
  output_string oc "\n";
  close_out oc;
  match List.rev !violations with
  | [] ->
    Fmt.pr "pruning parity OK: %d bug(s), artifact %s@." (List.length rows)
      !artifact;
    exit 0
  | vs ->
    Fmt.epr "pruning parity FAILED (%d bug(s) checked):@." (List.length rows);
    List.iter (fun v -> Fmt.epr "  %s@." v) vs;
    exit 1
