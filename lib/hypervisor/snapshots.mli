(** Prefix-sharing snapshot cache — the analogue of AITIA's VM snapshot
    tree.

    A snapshot is the machine reached after each step of a run: on the
    reference engine a persistent value (copy-on-write through the
    persistent maps, no deep copy), on the default compiled engine an
    arena handle — an undo-log mark — that {!store} freezes and a
    restore clones and rewinds on its first step.  A run's snapshots
    form one vector keyed by its schedule; a child schedule (one more
    switch, or a flip plan permuting the same trace) restores the
    longest cached prefix and executes only the divergent suffix.

    Two invariants are enforced at lookup time: a preemption hit
    requires the parent policy's pending-switch list to be empty at the
    divergence point (so resuming with only the new switch pending is
    bit-identical to a fresh run), and a {e poisoned} snapshot — one
    whose machine already carries a failure verdict — is never
    returned, so the faulting step always re-executes.  With a zero
    byte budget the cache is disabled and callers take the plain
    reboot path, bit-identical to no cache at all.

    The cache is safe to share between the workers of a {!Pool}: every
    operation holds one cache-wide lock (a no-op on the single-domain
    build), restores never mutate shared state (a persistent value,
    or a frozen handle the restore clones), and per-vector generation
    counters close the hit→store window — a child vector whose
    restored prefix came from a vector poisoned in between is silently
    dropped. *)

module Iid = Ksim.Access.Iid

type snap = {
  machine : Ksim.Machine.t;
  trace_rev : Ksim.Machine.event list;  (** events so far, reversed *)
  steps : int;
  queue : int list;  (** policy run queue dumped after the step *)
  pending : Schedule.switch list;  (** switches not yet consumed *)
}

type vector
(** The snapshots of one run: position [k] is the state after [k+1]
    steps. *)

type t
(** An LRU cache of vectors under an estimated byte budget. *)

val default_budget_bytes : int

val create : ?budget_bytes:int -> unit -> t

val enabled : t -> bool
(** False when the budget is zero or negative: every lookup misses and
    nothing is stored. *)

val store :
  t ->
  key:string ->
  ?parent:string * int ->
  base:snap array ->
  suffix_rev:snap list ->
  unit ->
  unit
(** Record the snapshot vector of a completed preemption run under the
    schedule's key.  [base] is the prefix inherited from the parent
    vector when the run was resumed (empty for a full run);
    [suffix_rev] is what the controller observer captured, newest
    first.  [parent] is the [(vector_key, parent_generation)] pair of
    the {!preemption_hit} the run resumed from; if that vector has
    been poisoned since the hit (concurrent workers only), the store
    is silently dropped — the base prefix is suspect.  Evicts
    least-recently-used vectors once over budget. *)

val poison : t -> key:string -> unit
(** Mark the entry under [key] unusable — a restore from it was
    detected as corrupted.  Future lookups refuse the whole vector (and
    count {!poisoned_refusals}), so callers degrade gracefully to the
    reboot path.  No-op for an absent or already-poisoned key. *)

type preemption_hit = {
  start : Controller.start;  (** restored position *)
  resume_queue : int list;
  resume_switches : Schedule.switch list;
      (** exactly the child's new switch, still pending *)
  base : snap array;  (** prefix snaps, adjusted for re-capture *)
  vector_key : string;
      (** the cache key of the vector the start was restored from —
          what {!poison} takes when the restore turns out corrupted *)
  parent_generation : int;
      (** that vector's generation at hit time; passed back to
          {!store} so a poisoning that lands between hit and store
          invalidates the child *)
}

val find_preemption : t -> Schedule.preemption -> preemption_hit option
(** The longest reusable prefix of a preemption schedule: the cached
    run of the same schedule minus its last switch, restored just after
    the step that triggers that switch.  [None] on any soundness doubt
    — unfired parent switches, poisoned snapshot, cold cache. *)

type plan_hit = {
  plan_start : Controller.start;
  suffix : Schedule.plan;  (** what remains to be enforced *)
  matched : int;  (** plan events satisfied by the restored prefix *)
}

val find_plan : t -> key:string -> Schedule.plan -> plan_hit option
(** The longest prefix of the plan coinciding with the stored run under
    [key] — for Causality Analysis, the failure run the flip permutes.
    Restoring it and enforcing only the suffix plan is bit-identical to
    a fresh run. *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val restored_instrs : t -> int
(** Prefix instructions obtained by restore instead of re-execution. *)

val poisonings : t -> int
(** Entries explicitly poisoned via {!poison}. *)

val poisoned_refusals : t -> int
(** Lookups refused because the snapshot they needed lies in a
    poisoned (or failing) region of its vector.  Also surfaced as the
    [snapshot.poisoned_refusals] telemetry counter, so degraded-mode
    runs are observable in [aitia stats]. *)

val cached_vectors : t -> int
val cached_bytes : t -> int
