(** Chrome trace-event JSON export ([chrome://tracing] / Perfetto).

    Spans become ["ph":"X"] complete events and final counter values
    ["ph":"C"] samples at the end of the timeline.  The output is one
    self-contained JSON object with a [traceEvents] array, loadable
    as-is. *)

val to_string : Recorder.t -> string

val write : file:string -> Recorder.t -> unit
(** [to_string] plus a trailing newline, written to [file]. *)
