(** Deterministic, seedable fault injection for the execution layer.

    The paper drives a real kernel under KVM/QEMU, where hardware
    breakpoints miss, guests hang at boot or mid-run, and repeated
    reproductions of the same schedule disagree (§5 reports repeated
    attempts per schedule).  This module models that unreliability so
    the retry/quorum machinery above it can be exercised and tested
    deterministically: every decision is drawn from a seeded splitmix64
    stream, so a (spec, seed) pair fully determines the fault schedule.

    Fault taxonomy, by how the layers above can react:

    - {e detectable, transient} — boot failures, step hangs, missed
      preemptions (breakpoint misses), spurious extra context switches.
      These taint the attempt; the executor retries tainted attempts
      with exponential backoff.
    - {e undetectable} — outcome flaps (a failing run spuriously
      passing, or a passing run spuriously failing).  Only quorum
      re-execution can mask these. *)

type spec = {
  boot : float;      (** probability a guest boot fails outright *)
  hang : float;      (** probability a run hangs before finishing *)
  miss : float;      (** probability one scheduling point is missed *)
  spurious : float;  (** probability of one spurious extra switch *)
  flap : float;      (** probability a run's verdict flips *)
  site : string option;
      (** restrict missed preemptions (breakpoint misses) to scheduling
          points at this static instruction label *)
}

val none : spec

val mixed : float -> spec
(** [mixed r] gives each of the five fault kinds the rate [r /. 6.].
    The divisor predates the retired snapshot-restore kind; keeping it
    keeps every seeded fault stream unchanged. *)

val spec_of_string : string -> (spec, string) result
(** Parse a comma-separated [key=value] spec: [rate=R] (see {!mixed}),
    the per-kind keys [boot], [hang], [miss], [spurious], [flap] (each
    a probability in [[0,1]]), and [site=LABEL].  Later keys override
    earlier ones. *)

val spec_to_string : spec -> string
val pp_spec : spec Fmt.t

type counts = {
  mutable n_boot : int;
  mutable n_hang : int;
  mutable n_miss : int;
  mutable n_spurious : int;
  mutable n_flap : int;
}

val total : counts -> int

type t

val create : ?seed:int -> spec -> t
(** Default seed 1.  Identical (spec, seed) pairs inject identical
    fault schedules given identical decision-point sequences. *)

val spec : t -> spec
val seed : t -> int
val counts : t -> counts

val injected : t -> int
(** Total faults injected so far ([total (counts t)]). *)

val active : t -> bool
(** Some kind has a positive rate. *)

val flappy : t -> bool
(** Outcome flaps are possible — the executor then needs quorum
    re-execution, since a flap is undetectable on a single run. *)

(** {1 Attempt lifecycle}

    The executor brackets each execution attempt with [start_attempt];
    detectable faults injected during the attempt mark it {e tainted},
    which the retry loop inspects after the run. *)

val start_attempt : t -> unit
val tainted : t -> bool

(** {1 Decision points}

    Each function draws from the seeded stream and, when the fault
    fires, updates [counts] and the [faults.*] telemetry counters. *)

val boot_fails : t -> bool
(** Decide whether this guest boot fails.  Taints the attempt when
    true. *)

val plan_hang : t -> max_steps:int -> int option
(** Decide whether (and after how many steps) this run hangs; the VM
    caps the watchdog budget at the returned step.  Counting and
    tainting happen in {!note_hang}, only if the cap actually fires —
    a run that finishes earlier was not perturbed. *)

val note_hang : t -> unit

val wrap_policy : t -> Controller.policy -> Controller.policy
(** Decide whether this run suffers one spurious extra context switch,
    and if so wrap the policy to divert one scheduling decision to
    another runnable thread.  Taints the attempt when the diversion
    actually happens. *)

val drop_switches : t -> Schedule.switch list -> Schedule.switch list
(** Decide whether one scheduling point of a preemption schedule is
    missed (a breakpoint miss) and drop it.  Honours [spec.site].
    Taints the attempt when a switch is dropped. *)

val drop_plan_event : t -> Schedule.plan -> Schedule.plan
(** The plan-schedule analogue of {!drop_switches}: one planned event
    is not enforced. *)

val flap : t -> Controller.outcome -> Controller.outcome
(** Decide whether this run's verdict flips: a failing verdict becomes
    [Completed], any other verdict becomes a fabricated failure at the
    last executed instruction.  Undetectable, so it does not taint the
    attempt. *)
