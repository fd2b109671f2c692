(** Perf-regression gate over bench metric documents.

    Numeric fields are higher-is-worse and fail beyond
    [baseline * (1 + tolerance)]; [true] booleans are invariants that
    must hold in the fresh document.  A baseline therefore holds only
    deterministic, lower-is-better numbers.  {!check_floors} (for
    host-timed ratios) and {!check_identical} gate the fresh document
    on its own, with no baseline. *)

type verdict = {
  gate_ok : bool;
  checked : int;  (** individual metric comparisons performed *)
  violations : string list;
}

val compare_rows :
  ?tolerance:float ->
  id_key:string ->
  baseline:Json.t list ->
  fresh:Json.t list ->
  unit ->
  verdict
(** Compare arrays of per-row objects matched on [id_key].  A baseline
    row or field missing from the fresh side is a violation; extra
    fresh rows/fields are allowed.  [tolerance] defaults to 0.02. *)

val compare_docs : baseline:Json.t -> fresh:Json.t -> unit -> verdict
(** Extract the row array from each document (its ["causality"]
    member) and compare every field with {!compare_rows} keyed on
    ["bug"] at the default tolerance. *)

val check_floors : floors:(string * float) list -> Json.t list -> verdict
(** Every row (keyed on ["bug"]) carrying a floored field must hold a
    number [>=] its floor.  A floored field that appears in no row is a
    violation. *)

val check_identical : Json.t list -> verdict
(** Every field named [*_identical] in the rows (keyed on ["bug"]) must
    be the boolean [true], whether or not any baseline carries it. *)
