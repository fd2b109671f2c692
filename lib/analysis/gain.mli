(** Expected-information-gain scheduling for the LIFS frontier (after
    Fariha et al., {e Causality-Guided Adaptive Interventional
    Debugging}).

    Every candidate run is a Bernoulli experiment; its expected
    information is the binary entropy of its estimated reproduction
    probability.  The gain-ordered search in {!Lifs} always runs the
    candidate with the highest entropy — the one whose outcome is least
    predictable — updating estimates with the search's evidence. *)

val entropy : float -> float
(** Binary entropy in bits; [0.] outside (0, 1). *)

val serial_gain : index:int -> float
(** Gain of the [index]-th serial (preemption-free) execution.  The
    first is [infinity] — it seeds the race database and must run
    before any extension; later serials complete the database, so they
    outrank every deeper extension but not the depth-1 extensions of
    the strongest (rank-0) pairs. *)

val extension_prior : int -> float
(** Prior reproduction probability of a frontier extension from its
    {!Summary} pair rank. *)

val extension_gain : rank:int -> depth:int -> site_runs:int -> float
(** Gain of executing a frontier extension: the prior decayed by the
    fewest-preemptions principle ([0.85^(depth-1)] for [depth]
    preemptions) and by adaptive site feedback ([0.6^site_runs] after
    [site_runs] non-reproducing runs at the same preemption site). *)
