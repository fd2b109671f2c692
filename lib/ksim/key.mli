(** Injective string keys for in-process tables (memoization, dedup,
    proof families).  Keys are never persisted, so only injectivity
    matters: each field below is self-delimiting — an integer ends in
    [','], a string is length-prefixed, an address is tagged — so a
    fixed sequence of fields decodes one way only.  Callers that append
    a variable number of fields close the sequence themselves. *)

val int : Buffer.t -> int -> unit
val string : Buffer.t -> string -> unit
val iid : Buffer.t -> Access.Iid.t -> unit
val addr : Buffer.t -> Addr.t -> unit
