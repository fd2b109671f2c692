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
  rq_jobs : int option;
  rq_prune : Causality.prune option;
  rq_order : Causality.order option;
  rq_snapshot_cache : bool;
  rq_snapshot_budget : int option;
  rq_fault_spec : string option;
  rq_fault_seed : int;
  rq_max_retries : int option;
  rq_step_timeout : int option;
  rq_journal : string option;
  rq_engine : Ksim.Engine.kind option;
}

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
  [ "id"; "bug"; "jobs"; "prune"; "order"; "snapshot_cache";
    "snapshot_budget"; "fault_spec"; "fault_seed"; "max_retries";
    "step_timeout"; "journal"; "engine" ]

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

let bool_field name fields =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Fmt.str "field %S must be a boolean" name)

let request_of_json (j : Json.t) : (request, string) result =
  match j with
  | Json.Obj fields ->
    let* () =
      List.fold_left
        (fun acc (k, _) ->
          let* () = acc in
          if List.mem k known_fields then Ok ()
          else Error (Fmt.str "unknown field %S" k))
        (Ok ()) fields
    in
    let* id = str_field "id" fields in
    let* bug = str_field "bug" fields in
    let* rq_id =
      match id with
      | Some s when s <> "" -> Ok s
      | _ -> Error "request needs a non-empty \"id\""
    in
    let* rq_bug =
      match bug with
      | Some s when s <> "" -> Ok s
      | _ -> Error (Fmt.str "request %S needs a \"bug\"" rq_id)
    in
    let* rq_jobs = int_field ~min:1 "jobs" fields in
    let* prune = str_field "prune" fields in
    let* rq_prune =
      match prune with
      | None -> Ok None
      | Some "none" -> Ok (Some `None)
      | Some "flipfeas" -> Ok (Some `Flipfeas)
      | Some "invariants" -> Ok (Some `Invariants)
      | Some s ->
        Error
          (Fmt.str
             "request %S: prune must be none/flipfeas/invariants (got %S)"
             rq_id s)
    in
    let* order = str_field "order" fields in
    let* rq_order =
      match order with
      | None -> Ok None
      | Some "backward" -> Ok (Some `Fixed)
      | Some "gain" -> Ok (Some `Gain)
      | Some s ->
        Error
          (Fmt.str "request %S: order must be backward/gain (got %S)" rq_id
             s)
    in
    let* snap = bool_field "snapshot_cache" fields in
    let* rq_snapshot_budget = int_field "snapshot_budget" fields in
    let* rq_fault_spec = str_field "fault_spec" fields in
    let* seed = int_field "fault_seed" fields in
    let* rq_max_retries = int_field "max_retries" fields in
    let* rq_step_timeout = int_field ~min:1 "step_timeout" fields in
    let* rq_journal = str_field "journal" fields in
    let* engine = str_field "engine" fields in
    let* rq_engine =
      match engine with
      | None -> Ok None
      | Some s -> (
        match Ksim.Engine.of_string s with
        | Ok k -> Ok (Some k)
        | Error e -> Error (Fmt.str "request %S: %s" rq_id e))
    in
    Ok
      { rq_id; rq_bug; rq_jobs; rq_prune; rq_order;
        rq_snapshot_cache = Option.value ~default:false snap;
        rq_snapshot_budget; rq_fault_spec;
        rq_fault_seed = Option.value ~default:1 seed;
        rq_max_retries; rq_step_timeout; rq_journal; rq_engine }
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

let resilience_of (rq : request) : Resilience.policy option =
  match (rq.rq_fault_spec, rq.rq_max_retries) with
  | None, None -> None
  | _ ->
    let max_retries =
      Option.value ~default:Resilience.default_policy.max_retries
        rq.rq_max_retries
    in
    let quorum =
      if max_retries = 0 then 1 else Resilience.default_policy.quorum
    in
    Some
      { Resilience.max_retries; quorum;
        backoff_base = Resilience.default_policy.backoff_base }

let journal_of ?journal_dir ~resume (rq : request) :
    (Journal.t option, string) result =
  let path =
    match rq.rq_journal with
    | Some p -> Some p
    | None ->
      Option.map
        (fun dir -> Filename.concat dir (rq.rq_id ^ ".journal.json"))
        journal_dir
  in
  match path with
  | None -> Ok None
  | Some p ->
    if resume then Result.map Option.some (Journal.load p)
    else Ok (Some (Journal.create p))

let run_request ?journal_dir ~resume ~resolve (rq : request) :
    (Diagnose.report, string) result =
  let* case, default_max_interleavings =
    match resolve rq.rq_bug with
    | Some x -> Ok x
    | None -> Error (Fmt.str "unknown bug id %S" rq.rq_bug)
  in
  let* faults =
    match rq.rq_fault_spec with
    | None -> Ok None
    | Some s -> (
      match Hypervisor.Faults.spec_of_string s with
      | Ok spec ->
        Ok (Some (Hypervisor.Faults.create ~seed:rq.rq_fault_seed spec))
      | Error e -> Error (Fmt.str "bad fault_spec: %s" e))
  in
  let* journal = journal_of ?journal_dir ~resume rq in
  match
    Diagnose.diagnose
      ?max_interleavings:default_max_interleavings
      ?max_steps:rq.rq_step_timeout ?prune:rq.rq_prune ?order:rq.rq_order
      ?jobs:rq.rq_jobs ~snapshot_cache:rq.rq_snapshot_cache
      ?snapshot_budget:rq.rq_snapshot_budget ?faults
      ?resilience:(resilience_of rq) ?journal ?engine:rq.rq_engine case
  with
  | report -> Ok report
  | exception e -> Error (Fmt.str "diagnosis raised: %s" (Printexc.to_string e))

let exit_of_report (r : Diagnose.report) : int =
  if (not (Diagnose.reproduced r)) && not r.Diagnose.degraded then 1
  else if r.Diagnose.degraded then 3
  else 0

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
      | _ -> run_request ?journal_dir ~resume ~resolve rq
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    match result with
    | Ok report ->
      { o_id = rq.rq_id; o_bug = rq.rq_bug;
        o_exit = exit_of_report report;
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
  let has code = List.exists (fun o -> o.o_exit = code) outcomes in
  let batch_exit =
    if has 2 then 2 else if has 1 then 1 else if has 3 then 3 else 0
  in
  { outcomes; batch_exit }

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
