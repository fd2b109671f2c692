(** Minimal JSON: the emission combinators shared by every report in
    the tree and a parser for
    consuming our own artifacts (the perf gate, the trace tests).
    Strings are escaped per RFC 8259.  No external dependency. *)

(** {1 Emission} *)

val escape : string -> string
(** JSON string contents (without the surrounding quotes). *)

val str : string -> string
(** A quoted, escaped JSON string. *)

val arr : string list -> string
(** A JSON array of already-serialized values. *)

val obj : (string * string) list -> string
(** A JSON object from key / already-serialized-value pairs. *)

val str_list : string list -> string
val bool : bool -> string
val int : int -> string

val float : float -> string
(** Fixed four-decimal rendering, stable across platforms. *)

(** {1 Parsed values} *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    byte offset of the problem. *)

val render : t -> string
(** Serialize a parsed value back to a compact document. *)

(** Accessors; [None] on a shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_num : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
