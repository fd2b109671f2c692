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

val learn : Ksim.Kcov.db -> run -> unit
(** Learn the run's accesses into the cross-run database, keyed by
    stable thread base names ({!Ksim.Kcov.add_trace}). *)

val failed : run -> Ksim.Failure.t option
