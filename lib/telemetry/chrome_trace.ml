(* Chrome trace-event export: the `chrome://tracing` / Perfetto JSON
   format (trace-event spec, "JSON Object Format").

   Every closed span becomes a "ph":"X" complete event (nesting within
   a track is inferred from ts/dur containment), and the final value
   of every counter a "ph":"C" counter sample at the end of the
   timeline — so the counter tracks show the run's totals.
   Timestamps are the probe's microseconds. *)

let us f = Printf.sprintf "%.1f" f

let args_json args =
  Json.obj (List.map (fun (k, v) -> (k, Json.str v)) args)

let span_event (s : Sink.span) =
  Json.obj
    [ ("name", Json.str s.span_name);
      ("cat", Json.str s.span_cat);
      ("ph", Json.str "X");
      ("ts", us s.span_start_us);
      ("dur", us s.span_dur_us);
      ("pid", "1");
      ("tid", "1");
      ("args", args_json s.span_args) ]

let counter_event ~ts (name, value) =
  Json.obj
    [ ("name", Json.str name);
      ("cat", Json.str "counter");
      ("ph", Json.str "C");
      ("ts", us ts);
      ("pid", "1");
      ("tid", "1");
      ("args", Json.obj [ ("value", Json.int value) ]) ]

let to_string (r : Recorder.t) =
  let spans = Recorder.spans r in
  let timed =
    List.stable_sort
      (fun (a : Sink.span) (b : Sink.span) ->
        Float.compare a.span_start_us b.span_start_us)
      spans
  in
  let horizon =
    List.fold_left
      (fun acc (s : Sink.span) ->
        Float.max acc (s.span_start_us +. s.span_dur_us))
      0.0 spans
  in
  let counters =
    List.map (counter_event ~ts:horizon) (Recorder.counters r)
  in
  Json.obj
    [ ("traceEvents", Json.arr (List.map span_event timed @ counters));
      ("displayTimeUnit", Json.str "ms") ]

let write ~file r =
  let oc = open_out file in
  output_string oc (to_string r);
  output_string oc "\n";
  close_out oc
