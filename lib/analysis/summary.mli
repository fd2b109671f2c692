(** Aggregation of a static analysis result: headline statistics and the
    fast pair-classification lookup LIFS consumes as search hints. *)

type stats = {
  n_threads : int;
  n_sites : int;
  n_pairs : int;      (** statically possible conflicting pairs *)
  n_guarded : int;
  n_unguarded : int;
  n_ambiguous : int;
  pruning_ratio : float;
      (** guarded / total pairs: the fraction of the static conflict
          space a lockset argument eliminates (0 when no pairs) *)
}

val stats : Candidates.result -> stats
val pp_stats : stats Fmt.t

type lint_stats = {
  n_lock_edges : int;
  n_cycles : int;
  n_parallel_cycles : int;
      (** cycles whose witness threads can actually overlap (MHP) *)
  n_inversions : int;
}

val lint_stats : Lockorder.report -> lint_stats

val clean : lint_stats -> bool
(** No cycles and no inversions: the lint found nothing. *)

val pp_lint_stats : lint_stats Fmt.t

type hints
(** Constant-time classification of a site pair, keyed by the stable
    (thread name, instruction label) identity {!Ksim.Kcov.site} uses —
    the currency LIFS's access database already speaks. *)

val hints : Candidates.result -> hints

val classify :
  hints -> a:string * string -> b:string * string -> Candidates.cls option
(** [classify h ~a:(thread, label) ~b:(thread, label)]; symmetric;
    [None] for pairs outside the candidate set. *)

val pair_rank : Candidates.pair -> int

val rank : hints -> a:string * string -> b:string * string -> int
(** Search priority for LIFS: lifetime-threatening or write-write
    [Unguarded] pairs 0 (first), other [Unguarded] 1, [Ambiguous] 2,
    unknown 3, [Guarded] {!guarded_rank} (prunable). *)

val guarded_rank : int

(** {2 Pruning-counter namespace}

    Every pruning source, in LIFS and in Causality Analysis, counts its
    events under one [pruned/*] name. *)

type pruned_kind =
  [ `Lifs_equivalent  (** DPOR-equivalent schedules *)
  | `Lifs_static  (** statically-skipped (Guarded) extensions *)
  | `Lifs_invariant  (** failure-irrelevant frontier slices *)
  | `Ca_static  (** flip-feasibility proofs *) ]

val pruned_counter : pruned_kind -> string
(** The counter name, e.g. ["pruned/ca_static"]. *)

val count_pruned : ?by:int -> pruned_kind -> unit
(** Bump the kind's counter. *)
