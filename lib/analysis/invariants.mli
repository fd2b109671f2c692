(** Error-invariant lint (after Holzer et al., {e Error Invariants for
    Concurrent Traces}).

    Over the failure-relevance closure ({!Absdom}), a critical section
    whose body touches only failure-irrelevant locations guards nothing
    the failure depends on.  The same closure drives the LIFS class
    collapse under [--prune invariants]; Causality Analysis prunes
    flips with {!Flipfeas} alone and executes every other flip. *)

type redundant = {
  red_thread : string;  (** thread spec / entry name *)
  red_lock : string;
  red_start : string;  (** label of the [Lock] *)
  red_stop : string;  (** label of the matching [Unlock] *)
  red_body : int;  (** instructions inside the section *)
}

val pp_redundant : redundant Fmt.t

val redundant_sections :
  ?relevance:Absdom.t -> Ksim.Program.group -> redundant list
(** Lock acquisitions whose critical section provably guards nothing
    failure-relevant: every instruction inside is straight-line and
    touches only locations outside the relevance closure.  Advisory
    findings for [aitia lint]. *)
