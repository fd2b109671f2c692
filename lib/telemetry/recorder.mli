(** The in-memory sink: accumulates spans, counters and histograms for
    the exporters and the tests. *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
}

type span_stat = { s_count : int; s_total_us : float }

type t

val create : unit -> t

val sink : t -> Sink.t
(** The sink feeding this recorder; install it with {!Probe.install}
    or {!Probe.with_sink}. *)

val spans : t -> Sink.span list
(** Completed spans in completion order. *)

val counter : t -> string -> int
(** Current value of a counter; 0 if never incremented. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val histograms : t -> (string * histogram) list
val histogram : t -> string -> histogram option

val span_stats : t -> (string * span_stat) list
(** Per-span-name rollup (count, total duration), sorted by name. *)

val replay : t -> Sink.t -> unit
(** Replay everything captured by this recorder into another sink, in
    capture order (counters as one accumulated on_count per name,
    sorted; observations raw), so a private recorder can be forwarded
    to an outer sink afterwards with histograms matching a direct
    recording. *)
