(** Data races over dynamic accesses, and their extraction from traces.

    A race [first => second] is a pair of conflicting accesses with an
    observed (or to-be-enforced) execution order; the test set of
    Causality Analysis is initialized with the races of the
    failure-causing instruction sequence (§3.4). *)

module Iid = Ksim.Access.Iid

type t = {
  first : Ksim.Access.t;
  second : Ksim.Access.t;
}

val key : t -> string
(** The identity rendered as a string, for journals and reports. *)

val equal : t -> t -> bool
(** Identity: endpoints + direction + location, compared structurally.
    [equal a b] iff [key a = key b]. *)

val compare : t -> t -> int
(** A total order consistent with {!equal}. *)

val dedup : t list -> t list
(** The first copy of each race (by {!equal}), in list order. *)

val addr : t -> Ksim.Addr.t

val is_cs_order : t -> bool
(** Both endpoints hold a common lock: an unintended critical-section
    order rather than a data race (a KCSAN-style detector would never
    flag it; Causality Analysis diagnoses it anyway, §3.4). *)

val pp : t Fmt.t
val pp_short : t Fmt.t  (** [A6 => B12] *)

val accesses_of_trace : Ksim.Machine.event list -> Ksim.Access.t list

val location_sequences :
  Ksim.Access.t list -> (Ksim.Addr.t * Ksim.Access.t list) list
(** Per-location access sequences, time-sorted; a [Whole] access (kfree)
    joins the sequence of every location of its object. *)

val of_trace : Ksim.Machine.event list -> t list
(** Per location, each access races with the first later conflicting
    access — unless a later access by its own thread supersedes it.
    Sorted by the position of the second access. *)

val pending_of_failure :
  db:Ksim.Kcov.db -> final:Ksim.Machine.t -> Ksim.Machine.event list ->
  t list
(** Races whose second access did not execute because the failure halted
    the machine, derived from the cross-run access database — e.g. the
    B17 => A12 race of Figure 6. *)

val surrounds : t -> t -> bool
(** [surrounds outer inner]: flipping [outer] cannot preserve [inner]'s
    order (Figure 7's nested-race geometry). *)

val occurred_in : Ksim.Machine.event list -> t -> bool
(** Both endpoints executed, in the race's order.  An inverted pair is a
    different interleaving order, hence not an occurrence. *)
