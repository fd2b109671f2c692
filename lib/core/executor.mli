(** Running schedules on a VM and harvesting what AITIA needs: the
    trace, access-database updates, and failure outcomes.

    When the VM carries a {!Hypervisor.Faults} harness, every run goes
    through a resilience driver: detectable transient faults (boot
    failures, hangs, missed preemptions, spurious switches) are retried
    with exponential backoff; undetectable outcome flaps are masked by
    quorum re-execution — a majority vote of independent clean runs.
    Without faults the driver is bypassed and all paths are
    bit-identical to the fault-free build. *)

type run = {
  outcome : Hypervisor.Controller.outcome;
  confidence : float;
      (** 1.0 normally; the quorum vote share when clean runs
          disagreed; 0.0 when the retry budget was exhausted and the
          result is a best-effort (possibly synthesized) outcome *)
}

val run_preemption :
  ?max_steps:int -> ?prologue:int list -> ?resilience:Resilience.t ->
  Hypervisor.Vm.t -> Hypervisor.Schedule.preemption -> run
(** One attempt is one run from a fresh boot.  [resilience] supplies the
    retry/quorum policy and accounting under fault injection — omitted,
    faults are still detected but never retried. *)

val run_plan :
  ?max_steps:int -> ?prologue:int list -> ?resilience:Resilience.t ->
  Hypervisor.Vm.t -> Hypervisor.Schedule.plan -> run
(** {!run_preemption} for a plan schedule (a Causality Analysis flip). *)

val learn : Ksim.Kcov.db -> run -> unit
(** Learn the run's accesses into the cross-run database, keyed by
    stable thread base names ({!Ksim.Kcov.add_trace}). *)

val failed : run -> Ksim.Failure.t option
