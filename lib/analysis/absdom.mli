(** Failure-relevance closure over abstract locations: the abstract
    domain of the LIFS class collapse and the redundant-section lint
    ({!Invariants}).

    A flow-insensitive fixpoint over the whole program group computes
    the set of {e relevant locations} — locations whose content can
    (transitively) influence a branch condition, a BUG_ON/WARN_ON
    predicate, an address computation, a spawn argument or a kfree
    target.  Reordering accesses confined to irrelevant locations
    cannot change any thread's instruction sequence nor the failure
    predicate's operands: that is the criterion LIFS uses to skip
    frontier slices and the lint uses to flag redundant sections. *)

type t

val of_group : Ksim.Program.group -> t
(** The relevance closure of a program group (all top-level threads and
    background entries). *)

val mem_abs : t -> Absaddr.t -> bool
(** May the abstract location alias a relevant one? *)

val mem_addr : t -> Ksim.Addr.t -> bool
(** [mem_abs] of the concrete location's abstraction: [Global g] stays
    itself, heap fields collapse to their field name, indices to
    [Slot], whole objects to [Whole]. *)

val relevant : t -> Absaddr.t list
(** The relevant locations, sorted (for reports). *)

val pp : t Fmt.t
