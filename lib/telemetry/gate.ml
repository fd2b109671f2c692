(* The perf-regression gate: compare two metric documents (per-bug
   JSON rows under a ["causality"] member, as in BENCH_causality.json)
   and flag any metric that got worse.

   Every numeric field of the baseline is treated as higher-is-worse —
   schedules explored, flips executed, simulated seconds — and fails
   when the fresh value exceeds baseline * (1 + tolerance).  Boolean
   fields are invariants: a [true] in the baseline (e.g.
   [chain_identical]) must stay [true].  Rows are matched by [id_key];
   a baseline row missing from the fresh document is a failure, extra
   fresh rows and extra fresh fields are allowed (metrics can grow
   without invalidating old baselines). *)

type verdict = {
  gate_ok : bool;
  checked : int;       (* individual metric comparisons performed *)
  violations : string list;
}

let rows_of doc = Option.bind (Json.member "causality" doc) Json.to_list

let row_id ~id_key row =
  match Option.bind (Json.member id_key row) Json.to_str with
  | Some id -> id
  | None -> "<no-" ^ id_key ^ ">"

let compare_rows ?(tolerance = 0.02) ~id_key
    ~(baseline : Json.t list) ~(fresh : Json.t list) () : verdict =
  let fresh_by_id =
    List.map (fun row -> (row_id ~id_key row, row)) fresh
  in
  let checked = ref 0 and violations = ref [] in
  let violation fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun brow ->
      let id = row_id ~id_key brow in
      match List.assoc_opt id fresh_by_id with
      | None -> violation "%s: row missing from the fresh document" id
      | Some frow ->
        let fields = match brow with Json.Obj kvs -> kvs | _ -> [] in
        List.iter
          (fun (k, bv) ->
            if String.equal k id_key then ()
            else
              match bv with
              | Json.Num b -> (
                incr checked;
                match Option.bind (Json.member k frow) Json.to_num with
                | None -> violation "%s: %s missing from the fresh row" id k
                | Some f ->
                  if f > (b *. (1.0 +. tolerance)) +. 1e-9 then
                    violation "%s: %s regressed %g -> %g (tolerance %g%%)"
                      id k b f (100.0 *. tolerance))
              | Json.Bool true -> (
                incr checked;
                match Option.bind (Json.member k frow) Json.to_bool with
                | Some true -> ()
                | Some false -> violation "%s: invariant %s broke" id k
                | None -> violation "%s: %s missing from the fresh row" id k)
              | _ -> ())
          fields)
    baseline;
  { gate_ok = !violations = [];
    checked = !checked;
    violations = List.rev !violations }

let compare_docs ~(baseline : Json.t) ~(fresh : Json.t) () : verdict =
  match (rows_of baseline, rows_of fresh) with
  | None, _ ->
    { gate_ok = false;
      checked = 0;
      violations = [ "baseline has no 'causality' rows" ] }
  | _, None ->
    { gate_ok = false;
      checked = 0;
      violations = [ "fresh document has no 'causality' rows" ] }
  | Some b, Some f ->
    compare_rows ~id_key:"bug" ~baseline:b ~fresh:f ()

(* Fresh-side checks need no baseline, so a metric or invariant that
   first appears in the fresh document is gated too. *)
let check_floors ~floors (rows : Json.t list) : verdict =
  let checked = ref 0 in
  let violations =
    List.concat_map
      (fun (field, min_v) ->
        let values =
          List.filter_map
            (fun row ->
              Option.map
                (fun v -> (row_id ~id_key:"bug" row, v))
                (Json.member field row))
            rows
        in
        (* a floored field in no row fails: a silently vanished
           metric must not read as a pass *)
        if values = [] then
          [ Printf.sprintf
              "%s: floored field missing from the fresh document" field ]
        else
          List.filter_map
            (fun (id, v) ->
              incr checked;
              match Json.to_num v with
              | Some f when f >= min_v -> None
              | Some f ->
                Some
                  (Printf.sprintf "%s: %s %.4f below floor %.4f" id field f
                     min_v)
              | None ->
                Some (Printf.sprintf "%s: %s is not numeric" id field))
            values)
      floors
  in
  { gate_ok = violations = []; checked = !checked; violations }

let check_identical (rows : Json.t list) : verdict =
  let checked = ref 0 in
  let violations =
    List.concat_map
      (fun row ->
        let id = row_id ~id_key:"bug" row in
        let fields = match row with Json.Obj kvs -> kvs | _ -> [] in
        List.filter_map
          (fun (k, v) ->
            if not (String.ends_with ~suffix:"_identical" k) then None
            else (
              incr checked;
              match Json.to_bool v with
              | Some true -> None
              | Some false -> Some (Printf.sprintf "%s: %s is false" id k)
              | None ->
                Some (Printf.sprintf "%s: %s is not a boolean" id k)))
          fields)
      rows
  in
  { gate_ok = violations = []; checked = !checked; violations }
