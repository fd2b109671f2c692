(* Batch diagnosis over a manifest of requests (see batch.mli).

   Parsing is strict: the manifest is a configuration file, so a typoed
   field name or a duplicate id rejects the whole document up front
   (exit 2 territory) rather than silently running a half-understood
   batch.  Execution is lenient: each accepted request is confined —
   a bad fault spec, an unreadable journal or an escaped exception
   turns into that request's exit-2 outcome and the rest proceed. *)

module Json = Telemetry.Json

let src = Logs.Src.create "aitia.batch" ~doc:"Batch diagnosis"

module Log = (val Logs.src_log src : Logs.LOG)

type request = {
  rq_id : string;
  rq_bug : string;
  rq_prune : Causality.prune option;
  rq_order : Lifs.order option;
  rq_fault_spec : string option;
  rq_fault_seed : int;
  rq_max_retries : int option;
  rq_step_timeout : int option;
  rq_journal : string option;
}

let default_request =
  { rq_id = ""; rq_bug = ""; rq_prune = None; rq_order = None;
    rq_fault_spec = None; rq_fault_seed = 1; rq_max_retries = None;
    rq_step_timeout = None; rq_journal = None }

type outcome = {
  o_id : string;
  o_bug : string;
  o_exit : int;
  o_reproduced : bool;
  o_degraded : bool;
  o_chain : string option;
  o_elapsed : float;
  o_error : string option;
}

type summary = { outcomes : outcome list; batch_exit : int }

(* --- manifest parsing --------------------------------------------------- *)

let ( let* ) = Result.bind

let known_fields =
  [ "id"; "bug"; "prune"; "order"; "fault_spec"; "fault_seed";
    "max_retries"; "step_timeout"; "journal" ]

let str_field name fields =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Fmt.str "field %S must be a string" name)

let int_field ?(min = 0) name fields =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (Json.Num f) when Float.is_integer f && int_of_float f >= min ->
    Ok (Some (int_of_float f))
  | Some _ ->
    Error (Fmt.str "field %S must be an integer >= %d" name min)

let enum_field rq_id name table fields =
  let* s = str_field name fields in
  match s with
  | None -> Ok None
  | Some s -> (
    match List.assoc_opt s table with
    | Some v -> Ok (Some v)
    | None ->
      Error
        (Fmt.str "request %S: %s must be %s (got %S)" rq_id name
           (String.concat "/" (List.map fst table))
           s))

let request_of_json (j : Json.t) : (request, string) result =
  match j with
  | Json.Obj fields ->
    let* id = str_field "id" fields in
    let* rq_id =
      match id with
      | Some s when s <> "" -> Ok s
      | _ -> Error "request needs a non-empty \"id\""
    in
    let* () =
      match List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
      with
      | Some (k, _) -> Error (Fmt.str "request %S: unknown field %S" rq_id k)
      | None -> Ok ()
    in
    let* bug = str_field "bug" fields in
    let* rq_bug =
      match bug with
      | Some s when s <> "" -> Ok s
      | _ -> Error (Fmt.str "request %S needs a \"bug\"" rq_id)
    in
    let* rq_prune = enum_field rq_id "prune" Causality.prune_names fields in
    let* rq_order = enum_field rq_id "order" Lifs.order_names fields in
    let* rq_fault_spec = str_field "fault_spec" fields in
    let* seed = int_field "fault_seed" fields in
    let* rq_max_retries = int_field "max_retries" fields in
    let* rq_step_timeout = int_field ~min:1 "step_timeout" fields in
    let* rq_journal = str_field "journal" fields in
    Ok
      { rq_id; rq_bug; rq_prune; rq_order; rq_fault_spec;
        rq_fault_seed =
          Option.value ~default:default_request.rq_fault_seed seed;
        rq_max_retries; rq_step_timeout; rq_journal }
  | _ -> Error "each request must be a JSON object"

let manifest_of_string (s : string) : (request list, string) result =
  let* doc = Json.of_string s in
  let* items =
    match doc with
    | Json.Arr items -> Ok items
    | Json.Obj _ -> (
      match Json.member "requests" doc with
      | Some (Json.Arr items) -> Ok items
      | _ -> Error "manifest object needs a \"requests\" array")
    | _ -> Error "manifest must be a JSON array or {\"requests\": [...]}"
  in
  let* requests =
    List.fold_left
      (fun acc item ->
        let* rev = acc in
        let* rq = request_of_json item in
        Ok (rq :: rev))
      (Ok []) items
    |> Result.map List.rev
  in
  let* () =
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc (rq : request) ->
        let* () = acc in
        if Hashtbl.mem seen rq.rq_id then
          Error (Fmt.str "duplicate request id %S" rq.rq_id)
        else (
          Hashtbl.replace seen rq.rq_id ();
          Ok ()))
      (Ok ()) requests
  in
  if requests = [] then Error "manifest has no requests" else Ok requests

let manifest_of_file (path : string) : (request list, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> manifest_of_string contents
  | exception Sys_error e -> Error e

(* --- execution ---------------------------------------------------------- *)

let diagnose ?journal ?on_run ~resolve (rq : request) :
    (Diagnose.report, string) result =
  let* case, max_interleavings =
    match resolve rq.rq_bug with
    | Some x -> Ok x
    | None -> Error (Fmt.str "unknown bug id %S" rq.rq_bug)
  in
  (* A fresh fault harness per request: a multi-bug CLI run injects the
     same per-bug fault schedule as single-bug ones. *)
  let* faults =
    match rq.rq_fault_spec with
    | None -> Ok None
    | Some s -> (
      match Hypervisor.Faults.spec_of_string s with
      | Ok spec ->
        Ok (Some (Hypervisor.Faults.create ~seed:rq.rq_fault_seed spec))
      | Error e -> Error (Fmt.str "bad fault_spec: %s" e))
  in
  let resilience =
    Resilience.policy_for ~faulted:(faults <> None) rq.rq_max_retries
  in
  Ok
    (Diagnose.diagnose ?max_interleavings ?max_steps:rq.rq_step_timeout
       ?prune:rq.rq_prune ?order:rq.rq_order ?faults ?resilience ?journal
       ?on_run case)

let run ?(jobs = 1) ?journal_dir ?(resume = false) ~resolve
    (requests : request list) : summary =
  (* Create a missing journal directory once, before any worker runs.
     Failing to create it fails only the requests that journal there. *)
  let dir_error =
    match journal_dir with
    | Some dir when not (Sys.file_exists dir) -> (
      try
        Sys.mkdir dir 0o755;
        None
      with Sys_error e ->
        Some (Fmt.str "cannot create journal directory %s: %s" dir e))
    | Some _ | None -> None
  in
  let exec (rq : request) : outcome =
    let t0 = Unix.gettimeofday () in
    Log.info (fun m -> m "request %s: diagnosing %s" rq.rq_id rq.rq_bug);
    let result =
      match (dir_error, rq.rq_journal) with
      | Some e, None -> Error e
      | _ -> (
        let path =
          match rq.rq_journal with
          | Some _ as p -> p
          | None ->
            Option.map
              (fun dir -> Filename.concat dir (rq.rq_id ^ ".journal.json"))
              journal_dir
        in
        let* journal = Journal.open_ ~resume path in
        try diagnose ?journal ~resolve rq
        with e ->
          Error (Fmt.str "diagnosis raised: %s" (Printexc.to_string e)))
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    match result with
    | Ok report ->
      { o_id = rq.rq_id; o_bug = rq.rq_bug;
        o_exit = Report.exit_code report;
        o_reproduced = Diagnose.reproduced report;
        o_degraded = report.Diagnose.degraded;
        o_chain = Option.map Chain.to_string report.Diagnose.chain;
        o_elapsed = elapsed; o_error = None }
    | Error msg ->
      Log.warn (fun m -> m "request %s: %s" rq.rq_id msg);
      { o_id = rq.rq_id; o_bug = rq.rq_bug; o_exit = 2;
        o_reproduced = false; o_degraded = false; o_chain = None;
        o_elapsed = elapsed; o_error = Some msg }
  in
  let pool = Hypervisor.Pool.create ~jobs in
  let outcomes = Hypervisor.Pool.map_list pool exec requests in
  { outcomes;
    batch_exit = Report.worst_exit (List.map (fun o -> o.o_exit) outcomes) }

(* --- report ------------------------------------------------------------- *)

let outcome_to_json (o : outcome) : string =
  Json.obj
    ([ ("id", Json.str o.o_id); ("bug", Json.str o.o_bug);
       ("exit", Json.int o.o_exit);
       ("reproduced", Json.bool o.o_reproduced);
       ("degraded", Json.bool o.o_degraded);
       ("elapsed_s", Json.float o.o_elapsed) ]
    @ (match o.o_chain with
      | Some c -> [ ("chain", Json.str c) ]
      | None -> [])
    @
    match o.o_error with
    | Some e -> [ ("error", Json.str e) ]
    | None -> [])

let summary_to_json (s : summary) : string =
  Json.obj
    [ ("exit", Json.int s.batch_exit);
      ("requests", Json.arr (List.map outcome_to_json s.outcomes)) ]
