(* The pluggable sink interface: where telemetry events go.

   A sink is a record of three callbacks — closed spans, counter
   increments, histogram observations.  The probe layer calls
   them only while a sink is installed, so instrumented code pays a
   single ref read when telemetry is off.  Sinks compose with [tee]
   (e.g. a CLI-wide Chrome-trace recorder plus a per-bug stats
   recorder observing the same run). *)

type span = {
  span_name : string;
  span_cat : string;                   (* Chrome trace category *)
  span_depth : int;                    (* nesting depth, outermost = 0 *)
  span_start_us : float;               (* µs since the probe origin *)
  span_dur_us : float;
  span_args : (string * string) list;
}

type t = {
  on_span : span -> unit;              (* called when a span closes *)
  on_count : string -> int -> unit;    (* named counter += n *)
  on_observe : string -> float -> unit;  (* histogram observation *)
}

let tee a b =
  { on_span =
      (fun s ->
        a.on_span s;
        b.on_span s);
    on_count =
      (fun name n ->
        a.on_count name n;
        b.on_count name n);
    on_observe =
      (fun name v ->
        a.on_observe name v;
        b.on_observe name v) }
