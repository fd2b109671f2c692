(** The global instrumentation facade.

    Hot paths call these unconditionally.  With no sink installed every
    probe is a single match on a ref — a no-op cheap enough for the
    controller step loop — and instrumented code is bit-identical to
    uninstrumented code, because probes never influence the computation
    they observe.  Spans nest via one global stack (the system is
    single-threaded). *)

val installed : unit -> bool
val current_sink : unit -> Sink.t option

val install : Sink.t -> unit
(** Install [s] as the global sink (replacing any previous one) and
    reset the span stack. *)

val uninstall : unit -> unit

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Run [f] with the given sink installed, restoring the previous sink
    (and span stack) afterwards, exceptions included. *)

val now_us : unit -> float
(** Microseconds since the probe origin; clamped monotonic. *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** Run [f] inside a named span.  If [f] raises, the span closes with
    an ["error"] argument and the exception is re-raised. *)

val span_begin : ?cat:string -> string -> unit
(** Open a span by hand — for call sites whose span arguments are only
    known at the end (e.g. a flip's verdict).  Pair with {!span_end}. *)

val span_end : ?args:(string * string) list -> unit -> unit
(** Close the innermost open span.  A no-op when no sink is installed
    or no span is open. *)

val count : ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter. *)

val observe : string -> float -> unit
(** Record one observation of a named histogram. *)
