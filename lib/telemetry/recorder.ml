(* The in-memory sink: accumulates everything a run emits, for the
   exporters (Chrome trace, flat metrics) and for tests that assert
   counter parity with the Summary stats. *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
}

type span_stat = { s_count : int; s_total_us : float }

type t = {
  mutable rec_spans : Sink.span list;      (* newest first *)
  rec_counters : (string, int) Hashtbl.t;
  rec_histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { rec_spans = [];
    rec_counters = Hashtbl.create 32;
    rec_histograms = Hashtbl.create 16 }

let sink t =
  { Sink.on_span = (fun s -> t.rec_spans <- s :: t.rec_spans);
    on_count =
      (fun name by ->
        let prev =
          Option.value ~default:0 (Hashtbl.find_opt t.rec_counters name)
        in
        Hashtbl.replace t.rec_counters name (prev + by));
    on_observe =
      (fun name v ->
        let h =
          match Hashtbl.find_opt t.rec_histograms name with
          | None -> { h_count = 1; h_sum = v; h_min = v; h_max = v }
          | Some h ->
            { h_count = h.h_count + 1;
              h_sum = h.h_sum +. v;
              h_min = min h.h_min v;
              h_max = max h.h_max v }
        in
        Hashtbl.replace t.rec_histograms name h) }

let spans t = List.rev t.rec_spans

let counter t name =
  Option.value ~default:0 (Hashtbl.find_opt t.rec_counters name)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.rec_counters
let histograms t = sorted_bindings t.rec_histograms
let histogram t name = Hashtbl.find_opt t.rec_histograms name

(* Per-name rollup of the recorded spans, for the flat metrics export
   and `aitia stats`. *)
let span_stats t =
  let tbl : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Sink.span) ->
      let prev =
        match Hashtbl.find_opt tbl s.span_name with
        | None -> { s_count = 0; s_total_us = 0.0 }
        | Some st -> st
      in
      Hashtbl.replace tbl s.span_name
        { s_count = prev.s_count + 1;
          s_total_us = prev.s_total_us +. s.span_dur_us })
    t.rec_spans;
  sorted_bindings tbl
