(** Running schedules on a VM and harvesting what AITIA needs: the
    trace, access-database updates, and failure outcomes.

    When the VM carries a {!Hypervisor.Faults} harness, every run goes
    through a resilience driver: detectable transient faults (boot
    failures, hangs, missed preemptions, spurious switches) are retried
    with exponential backoff; detected snapshot-restore corruption
    poisons the bad cache entry and degrades the run to the reboot
    path; undetectable outcome flaps are masked by quorum re-execution
    — a majority vote of independent clean runs.  Without faults the
    driver is bypassed and all paths are bit-identical to the
    fault-free build. *)

type run = {
  schedule_kind : [ `Preemption | `Plan ];
  outcome : Hypervisor.Controller.outcome;
  confidence : float;
      (** 1.0 normally; the quorum vote share when clean runs
          disagreed; 0.0 when the retry budget was exhausted and the
          result is a best-effort (possibly synthesized) outcome *)
}

val run_preemption :
  ?max_steps:int -> ?prologue:int list ->
  ?snapshots:Hypervisor.Snapshots.t -> ?resilience:Resilience.t ->
  Hypervisor.Vm.t -> Hypervisor.Schedule.preemption -> run
(** With [snapshots], the run restores the longest cached prefix of the
    schedule and executes only the suffix, then stores its own snapshot
    vector for future children.  The outcome is bit-identical to a
    fresh run either way.  Under fault injection, perturbed attempts
    bypass the cache entirely (neither lookup nor store), and
    [resilience] supplies the retry/quorum policy and accounting —
    omitted, faults are still detected but never retried. *)

val run_plan :
  ?max_steps:int -> ?prologue:int list ->
  ?snapshots:Hypervisor.Snapshots.t * string -> ?resilience:Resilience.t ->
  Hypervisor.Vm.t -> Hypervisor.Schedule.plan -> run
(** With [(cache, key)], the plan resumes from the cached run stored
    under [key] (for Causality Analysis: the reproduced failure run)
    at the longest matching prefix, instead of rebooting.  Lookup only
    — flip runs are executed once and not themselves cached. *)

val learn : Ksim.Kcov.db -> run -> Ksim.Kcov.db
(** Fold the run's accesses into the cross-run database, keyed by stable
    thread base names. *)

val failed : run -> Ksim.Failure.t option

(** {1 The ordered runner}

    The one place schedules of LIFS frontiers and Causality flips are
    run and merged. *)

type ('s, 'r) item =
  | Known of 'r  (** a result decided without a run (skipped, pruned,
                     replayed from a journal) *)
  | Run of 's    (** a schedule to execute *)

type step = Continue | Stop

type 'r merge =
  | Until of ('r -> step)  (** may end the walk by returning [Stop] *)
  | Each of ('r -> unit)   (** merges every result *)

val ordered :
  ?pool:Hypervisor.Pool.t -> Hypervisor.Vm.t ->
  exec:(Hypervisor.Vm.t -> 's -> 'r) -> merge:'r merge ->
  ('s, 'r) item Seq.t -> int
(** [ordered ?pool vm ~exec ~merge items] runs every [Run] item with
    [exec] and hands each item's result to [merge], in sequence order,
    until an [Until] merge returns [Stop] or the sequence ends.

    Without a usable pool — none, one worker, or a VM that injects
    faults (one fault stream couples its runs) — each schedule runs on
    [vm] as soon as it is pulled, and the next item is pulled only
    after the previous one merged, so the sequence may be computed
    from earlier merges (the gain schedulers rely on this) and nothing
    past a [Stop] is ever forced.

    With a pool, schedules run concurrently, each on a fresh guest with
    [vm]'s engine and under its own telemetry recorder: in waves of
    [4 * jobs] under [Until], which bound the runs wasted past a
    [Stop], and in one wave of the whole sequence under [Each].  The
    merge then absorbs each worker guest into [vm]
    ({!Hypervisor.Vm.absorb}), replays its recorder into the current
    sink and calls [merge], in order — so merged results, counters and
    spans match the sequential walk.  Results past a [Stop] are
    discarded unmerged; their number is returned (always 0 without a
    pool). *)
