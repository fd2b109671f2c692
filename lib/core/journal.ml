(* Resumable diagnosis journal: per-slice / per-flip checkpoints in a
   write-ahead log.  The file is one snapshot — the whole journal as a
   JSON document, written atomically by temp file + rename — followed by
   one compact JSON record per later checkpoint, appended with
   O_APPEND.  A checkpoint therefore costs one small write however big
   the journal has grown; {!load} folds the records into the snapshot.

   Races are journaled with their full endpoint data (thread, label,
   occurrence, address, kind, time, locks held) rather than recomputed
   on resume: [Race.pending_of_failure] depends on the cross-run access
   database, which an interrupted run accumulated along a path the
   resumed run does not retrace.  Flips, by contrast, reference races
   by {!Race.key} — the slice's race list is the lookup table — so a
   slice's races are written once, by the record that opens the
   slice, and flip records carry keys only. *)

module J = Telemetry.Json
module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule

type flip = {
  f_race : string;
  f_verdict : [ `Root_cause | `Benign ];
  f_pruned : string option;
  f_enforced : bool;
  f_disappeared : string list;
  f_confidence : float;
}

type slice =
  | No_repro of {
      nr_threads : string list;
      nr_lifs : Lifs.stats;
    }
  | Reproduced of {
      r_threads : string list;
      r_schedule : Schedule.preemption;
      r_lifs : Lifs.stats;
      r_races : Race.t list;
      r_flips : flip list;
      r_ca_schedules : int;
      r_ca_simulated : float;
      r_ca_instrs : int;
      r_ca_complete : bool;
    }

type case_entry = {
  slices : slice list;
  complete : bool;
}

(* [snapshotted]: this value has written its snapshot, so later
   checkpoints append.  It starts false for created and loaded journals
   alike: the first write replaces whatever the file held, including
   the torn tail of a killed run. *)
type t = {
  path : string;
  mutable cases : (string * case_entry) list;
  mutable snapshotted : bool;
}

let create path = { path; cases = []; snapshotted = false }
let path t = t.path
let find_case t name = List.assoc_opt name t.cases

(* One checkpoint after the snapshot. *)
type record =
  | Entry of string * case_entry  (* replace or add a case *)
  | Flip of string * flip * Causality.stats
      (* one more flip of the case's reproducing slice, with the CA
         counters so far *)
  | Done of string * flip list option * Causality.stats
      (* CA finished: the counters, and the authoritative flip list
         when it is not the one the flip records built; the case is
         complete *)

exception Bad of string

let bad fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt

let replace_case t name entry =
  t.cases <-
    (if List.mem_assoc name t.cases then
       List.map
         (fun (n, e) -> if String.equal n name then (n, entry) else (n, e))
         t.cases
     else t.cases @ [ (name, entry) ])

(* Flip and completion records update the case's last slice, which is
   its reproducing one: once a slice reproduces, no other is tried. *)
let update_ca t name ~complete flips (st : Causality.stats) =
  let e =
    match find_case t name with
    | Some e -> e
    | None -> bad "record for unknown case %S" name
  in
  match List.rev e.slices with
  | Reproduced r :: older ->
    let last =
      Reproduced
        { r with
          r_flips = flips r.r_flips;
          r_ca_schedules = st.schedules;
          r_ca_simulated = st.simulated;
          r_ca_instrs = st.executed_instrs;
          r_ca_complete = complete }
    in
    replace_case t name
      { slices = List.rev (last :: older); complete = e.complete || complete }
  | _ -> bad "case %S has no reproducing slice" name

let apply t = function
  | Entry (name, entry) -> replace_case t name entry
  | Flip (name, flip, st) ->
    update_ca t name ~complete:false (fun fs -> fs @ [ flip ]) st
  | Done (name, flips, st) ->
    update_ca t name ~complete:true
      (fun fs -> Option.value flips ~default:fs)
      st

(* --- emission ----------------------------------------------------------- *)

let iid_json (i : Iid.t) =
  J.obj [ ("tid", J.int i.tid); ("label", J.str i.label);
          ("occ", J.int i.occ) ]

let addr_json : Ksim.Addr.t -> string = function
  | Ksim.Addr.Global name -> J.obj [ ("k", J.str "g"); ("name", J.str name) ]
  | Ksim.Addr.Field (o, f) ->
    J.obj [ ("k", J.str "f"); ("obj", J.int o); ("field", J.str f) ]
  | Ksim.Addr.Index (o, i) ->
    J.obj [ ("k", J.str "i"); ("obj", J.int o); ("idx", J.int i) ]
  | Ksim.Addr.Whole o -> J.obj [ ("k", J.str "w"); ("obj", J.int o) ]

let kind_tag = function
  | Ksim.Instr.Read -> "r"
  | Ksim.Instr.Write -> "w"
  | Ksim.Instr.Update -> "u"

let access_json (a : Ksim.Access.t) =
  J.obj
    [ ("tid", J.int a.iid.Iid.tid);
      ("label", J.str a.iid.Iid.label);
      ("occ", J.int a.iid.Iid.occ);
      ("addr", addr_json a.addr);
      ("kind", J.str (kind_tag a.kind));
      ("time", J.int a.time);
      ("held", J.str_list a.held) ]

let race_json (r : Race.t) =
  J.obj [ ("first", access_json r.first); ("second", access_json r.second) ]

let switch_json (s : Schedule.switch) =
  J.obj [ ("after", iid_json s.after); ("to", J.int s.switch_to) ]

let schedule_json (p : Schedule.preemption) =
  J.obj
    [ ("order", J.arr (List.map J.int p.order));
      ("switches", J.arr (List.map switch_json p.switches)) ]

let flip_json (f : flip) =
  J.obj
    [ ("race", J.str f.f_race);
      ("verdict",
       J.str (match f.f_verdict with
              | `Root_cause -> "root_cause"
              | `Benign -> "benign"));
      ("pruned", match f.f_pruned with Some p -> J.str p | None -> "null");
      ("enforced", J.bool f.f_enforced);
      ("disappeared", J.str_list f.f_disappeared);
      ("confidence", J.float f.f_confidence) ]

let lifs_json (l : Lifs.stats) =
  J.obj
    [ ("schedules", J.int l.schedules);
      ("pruned", J.int l.pruned);
      ("static_pruned", J.int l.static_pruned);
      ("invariant_pruned", J.int l.invariant_pruned);
      ("gain_reorderings", J.int l.gain_reorderings);
      ("trace_equivalent", J.int l.trace_equivalent);
      ("interleavings", J.int l.interleavings);
      ("simulated", J.float l.simulated);
      ("executed_instrs", J.int l.executed_instrs) ]

let ca_fields (st : Causality.stats) =
  [ ("schedules", J.int st.schedules);
    ("simulated", J.float st.simulated);
    ("instrs", J.int st.executed_instrs) ]

let slice_json = function
  | No_repro s ->
    J.obj
      [ ("kind", J.str "no_repro");
        ("threads", J.str_list s.nr_threads);
        ("lifs", lifs_json s.nr_lifs) ]
  | Reproduced s ->
    J.obj
      [ ("kind", J.str "reproduced");
        ("threads", J.str_list s.r_threads);
        ("schedule", schedule_json s.r_schedule);
        ("lifs", lifs_json s.r_lifs);
        ("races", J.arr (List.map race_json s.r_races));
        ("flips", J.arr (List.map flip_json s.r_flips));
        ("ca",
         J.obj
           [ ("schedules", J.int s.r_ca_schedules);
             ("simulated", J.float s.r_ca_simulated);
             ("instrs", J.int s.r_ca_instrs);
             ("complete", J.bool s.r_ca_complete) ]) ]

let case_json e =
  J.obj
    [ ("complete", J.bool e.complete);
      ("slices", J.arr (List.map slice_json e.slices)) ]

let to_string t =
  J.obj
    [ ("version", J.int 1);
      ("cases",
       J.obj (List.map (fun (name, e) -> (name, case_json e)) t.cases)) ]

let record_json = function
  | Entry (name, e) -> J.obj [ ("case", J.str name); ("entry", case_json e) ]
  | Flip (name, f, st) ->
    J.obj
      [ ("case", J.str name);
        ("flip", flip_json f);
        ("ca", J.obj (ca_fields st)) ]
  | Done (name, fs, st) ->
    J.obj
      ([ ("case", J.str name); ("complete", J.bool true) ]
      @ (match fs with
        | Some fs -> [ ("flips", J.arr (List.map flip_json fs)) ]
        | None -> [])
      @ [ ("ca", J.obj (ca_fields st)) ])

(* Every write, serialization included, is a span of the "journal"
   category and counts its bytes. *)
let written ~span ~counter text f =
  Telemetry.Probe.with_span ~cat:"journal" span (fun () ->
      let text = text () in
      f text;
      Telemetry.Probe.count counter;
      Telemetry.Probe.count ~by:(String.length text) "journal.bytes_written")

(* Atomic snapshot: a kill mid-write leaves the previous file. *)
let save t =
  written ~span:"journal.snapshot" ~counter:"journal.snapshots"
    (fun () -> to_string t ^ "\n")
    (fun text ->
      let tmp = t.path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
      Sys.rename tmp t.path);
  t.snapshotted <- true

(* An append-mode write at the end of the file; a kill mid-write
   leaves a cut-off last record, which {!load} drops. *)
let append t record =
  written ~span:"journal.append" ~counter:"journal.records"
    (fun () -> record_json record ^ "\n")
    (fun text ->
      let fd = Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.write_substring fd text 0 (String.length text))))

let checkpoint t record =
  (try apply t record with Bad msg -> invalid_arg ("Journal: " ^ msg));
  if t.snapshotted then append t record else save t

let set_case t name entry = checkpoint t (Entry (name, entry))
let add_flip t name flip st = checkpoint t (Flip (name, flip, st))
(* The authoritative list usually equals the journaled one; the record
   then leaves it out. *)
let complete_case t name flips st =
  let journaled =
    match Option.map (fun e -> List.rev e.slices) (find_case t name) with
    | Some (Reproduced r :: _) -> Some r.r_flips
    | _ -> None
  in
  checkpoint t
    (Done (name, (if journaled = Some flips then None else Some flips), st))

(* --- parsing ------------------------------------------------------------ *)

let need what = function
  | Some v -> v
  | None -> bad "missing or ill-typed %s" what

let get k j = need k (J.member k j)
let get_str k j = need k (Option.bind (J.member k j) J.to_str)
let get_num k j = need k (Option.bind (J.member k j) J.to_num)
let get_int k j = int_of_float (get_num k j)
let get_bool k j = need k (Option.bind (J.member k j) J.to_bool)
let get_list k j = need k (Option.bind (J.member k j) J.to_list)

let get_strs k j =
  List.map (fun s -> need (k ^ " element") (J.to_str s)) (get_list k j)

let iid_of_json j =
  Iid.make ~tid:(get_int "tid" j) ~label:(get_str "label" j)
    ~occ:(get_int "occ" j)

let addr_of_json j : Ksim.Addr.t =
  match get_str "k" j with
  | "g" -> Ksim.Addr.Global (get_str "name" j)
  | "f" -> Ksim.Addr.Field (get_int "obj" j, get_str "field" j)
  | "i" -> Ksim.Addr.Index (get_int "obj" j, get_int "idx" j)
  | "w" -> Ksim.Addr.Whole (get_int "obj" j)
  | k -> bad "unknown addr kind %S" k

let kind_of_tag = function
  | "r" -> Ksim.Instr.Read
  | "w" -> Ksim.Instr.Write
  | "u" -> Ksim.Instr.Update
  | k -> bad "unknown access kind %S" k

let access_of_json j : Ksim.Access.t =
  { Ksim.Access.iid = iid_of_json j;
    addr = addr_of_json (get "addr" j);
    kind = kind_of_tag (get_str "kind" j);
    time = get_int "time" j;
    held = get_strs "held" j }

let race_of_json j : Race.t =
  { Race.first = access_of_json (get "first" j);
    second = access_of_json (get "second" j) }

let switch_of_json j : Schedule.switch =
  { Schedule.after = iid_of_json (get "after" j);
    switch_to = get_int "to" j }

let schedule_of_json j : Schedule.preemption =
  { Schedule.order = List.map (fun n -> int_of_float (need "order" (J.to_num n)))
      (get_list "order" j);
    switches = List.map switch_of_json (get_list "switches" j) }

let flip_of_json j : flip =
  { f_race = get_str "race" j;
    f_verdict =
      (match get_str "verdict" j with
      | "root_cause" -> `Root_cause
      | "benign" -> `Benign
      | v -> bad "unknown verdict %S" v);
    f_pruned = Option.bind (J.member "pruned" j) J.to_str;
    f_enforced = get_bool "enforced" j;
    f_disappeared = get_strs "disappeared" j;
    f_confidence = get_num "confidence" j }

(* Absent in journals written before the invariant/gain/trace-equivalent
   counters were added; such runs executed without them, so zero is
   exact. *)
let get_int_opt k j =
  match Option.bind (J.member k j) J.to_num with
  | Some f -> int_of_float f
  | None -> 0

let lifs_of_json j : Lifs.stats =
  { schedules = get_int "schedules" j;
    pruned = get_int "pruned" j;
    static_pruned = get_int "static_pruned" j;
    invariant_pruned = get_int_opt "invariant_pruned" j;
    gain_reorderings = get_int_opt "gain_reorderings" j;
    trace_equivalent = get_int_opt "trace_equivalent" j;
    interleavings = get_int "interleavings" j;
    simulated = get_num "simulated" j;
    executed_instrs = get_int "executed_instrs" j }

let slice_of_json j : slice =
  match get_str "kind" j with
  | "no_repro" ->
    No_repro
      { nr_threads = get_strs "threads" j;
        nr_lifs = lifs_of_json (get "lifs" j) }
  | "reproduced" ->
    let ca = get "ca" j in
    Reproduced
      { r_threads = get_strs "threads" j;
        r_schedule = schedule_of_json (get "schedule" j);
        r_lifs = lifs_of_json (get "lifs" j);
        r_races = List.map race_of_json (get_list "races" j);
        r_flips = List.map flip_of_json (get_list "flips" j);
        r_ca_schedules = get_int "schedules" ca;
        r_ca_simulated = get_num "simulated" ca;
        r_ca_instrs = get_int "instrs" ca;
        r_ca_complete = get_bool "complete" ca }
  | k -> bad "unknown slice kind %S" k

let case_of_json j : case_entry =
  { complete = get_bool "complete" j;
    slices = List.map slice_of_json (get_list "slices" j) }

let ca_of_json j : Causality.stats =
  { Causality.zero_stats with
    schedules = get_int "schedules" j;
    simulated = get_num "simulated" j;
    executed_instrs = get_int "instrs" j }

let record_of_json j =
  let name = get_str "case" j in
  match (J.member "entry" j, J.member "flip" j, J.member "complete" j) with
  | Some e, None, None -> Entry (name, case_of_json e)
  | None, Some f, None -> Flip (name, flip_of_json f, ca_of_json (get "ca" j))
  | None, None, Some _ ->
    Done
      ( name,
        Option.map
          (fun _ -> List.map flip_of_json (get_list "flips" j))
          (J.member "flips" j),
        ca_of_json (get "ca" j) )
  | _ -> bad "unknown journal record"

let of_json path j =
  (match J.member "version" j with
  | Some v when J.to_num v = Some 1. -> ()
  | Some _ -> bad "unsupported journal version"
  | None -> bad "missing journal version");
  let cases =
    match get "cases" j with
    | J.Obj fields -> List.map (fun (n, c) -> (n, case_of_json c)) fields
    | _ -> bad "cases is not an object"
  in
  { path; cases; snapshotted = false }

let load path =
  if not (Sys.file_exists path) then Ok (create path)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text -> (
      match J.of_string_seq text with
      | Error e -> Error (Fmt.str "%s: %s" path e)
      | Ok (snapshot, records) -> (
        match
          let t = of_json path snapshot in
          List.iter (fun r -> apply t (record_of_json r)) records;
          t
        with
        | t -> Ok t
        | exception Bad msg -> Error (Fmt.str "%s: %s" path msg)))

let open_ ~resume path =
  match path with
  | None when resume ->
    Error
      "--resume needs a journal (--journal FILE; in a batch, a \"journal\" \
       field or --journal-dir)"
  | None -> Ok None
  | Some p
    when let dir = Filename.dirname p in
         not (Sys.file_exists dir && Sys.is_directory dir) ->
    (* Caught here, not at the first checkpoint mid-diagnosis. *)
    Error
      (Fmt.str "cannot journal to %s: directory %s does not exist" p
         (Filename.dirname p))
  | Some p when resume -> (
    match load p with
    | Ok t -> Ok (Some t)
    | Error e -> Error ("cannot resume: " ^ e))
  | Some p -> Ok (Some (create p))
