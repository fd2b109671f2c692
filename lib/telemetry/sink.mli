(** The pluggable sink interface: where telemetry events go.

    The probe layer calls a sink only while one is installed; with no
    sink, instrumentation costs a single ref read and produces nothing
    — the overhead contract of DESIGN.md. *)

type span = {
  span_name : string;
  span_cat : string;  (** Chrome trace category *)
  span_depth : int;  (** nesting depth at emission, outermost = 0 *)
  span_start_us : float;  (** microseconds since the probe origin *)
  span_dur_us : float;
  span_args : (string * string) list;
}

type t = {
  on_span : span -> unit;  (** called when a span closes *)
  on_count : string -> int -> unit;  (** named counter += n *)
  on_observe : string -> float -> unit;  (** histogram observation *)
}

val tee : t -> t -> t
(** Duplicate every event to both sinks, first argument first. *)
