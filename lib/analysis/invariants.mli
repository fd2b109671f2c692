(** The error-invariant engine (after Holzer et al., {e Error
    Invariants for Concurrent Traces}).

    Derives, per flip plan, an invariant strong enough to prove the
    flipped re-execution cannot {e complete} — Causality Analysis'
    Benign verdict covers every non-completing outcome, so a proven
    flip is discharged without a VM run.  Two rules, tried in order:

    - {e segment}: the plan is an order/lock-respecting permutation
      whose displaced window touches only failure-irrelevant global
      locations (see {!Absdom}), so the failure predicate is preserved
      abstractly;
    - {e replay}: the flip's outcome is re-derived concretely by
      driving a pure {!Ksim.Machine} under an exact mirror of the
      hypervisor's plan-enforcement policy; the machine is
      deterministic, so the mirrored verdict is the VM's verdict.

    Proofs are emitted as checkable {!certificate}s (the {!Flipfeas}
    proof shape: a reason string plus re-derivable evidence), and
    identical plans share one proof through the family cache. *)

type rule = Family | Segment | Replay

val rule_name : rule -> string

type certificate = {
  cert_key : string;  (** race key the proof was first derived for *)
  cert_rule : rule;
  cert_failure : string;  (** predicted verdict class of the re-run *)
  cert_steps : int;  (** replay length; [0] for segment proofs *)
  cert_window : (int * int) option;
      (** displaced trace-index window of a segment proof *)
  cert_displaced : string list;  (** displaced abstract locations *)
  cert_fingerprints : string list;
      (** machine-state digests sampled along the replayed prefix — the
          invariant chain of a replay proof *)
}

val pp_certificate : certificate Fmt.t

type engine

val default_max_steps : int

val create :
  ?max_steps:int -> ?prologue:int list -> Ksim.Program.group -> engine
(** An engine for one failing execution's program group.  [prologue]
    and [max_steps] must match the executor's re-run configuration so
    the replay rule mirrors it exactly. *)

val relevance : engine -> Absdom.t
(** The failure-relevance closure the segment rule reasons over. *)

val plan_key : Ksim.Access.Iid.t list -> string
(** The families-table key of a plan; distinct plans get distinct
    keys. *)

val prune :
  engine ->
  key:string ->
  ctx:Flipfeas.ctx ->
  plan:Ksim.Access.Iid.t list ->
  run_through_budget:int ->
  (string * certificate) option
(** [Some (reason, certificate)] when the flip identified by [key]
    (with the failing trace's [ctx] and flip [plan]) provably cannot
    complete; [None] when it must execute.  Reasons are prefixed
    ["invariant segment:"], ["invariant replay:"] or ["invariant
    family:"].  Results are cached per {!plan_key}, so flip families
    sharing a plan are discharged by a single derivation.  One engine
    serves one failing trace: the cache does not key on [ctx]. *)

val check :
  engine ->
  ctx:Flipfeas.ctx ->
  plan:Ksim.Access.Iid.t list ->
  run_through_budget:int ->
  certificate ->
  bool
(** Re-derive the proof from scratch and compare every piece of
    evidence (rule, verdict class, replay length, window, displaced
    locations, state fingerprints). *)

(** {2 Invariant-derived lint: redundant critical sections} *)

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
