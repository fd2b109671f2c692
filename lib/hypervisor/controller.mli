(** The generic schedule-enforcement loop — the KVM/QEMU analogue.

    Where the AITIA hypervisor installs breakpoints and parks threads in
    the trampoline, this controller steps the guest machine one
    instruction at a time, asking a policy which thread runs next; a
    thread the policy does not pick is exactly a trampoline-suspended
    thread. *)

type verdict =
  | Completed                   (** every thread ran to the end *)
  | Failed of Ksim.Failure.t
  | Deadlock                    (** live threads, none runnable *)
  | Step_limit                  (** watchdog *)

type outcome = {
  verdict : verdict;
  trace : Ksim.Machine.event list;  (** execution order *)
  final : Ksim.Machine.t;
  steps : int;
}

val is_failure : outcome -> bool

type policy = Ksim.Machine.t -> int option
(** A policy sees the machine and picks a thread; [None] gives up
    (deadlock if threads remain).  It is called only while some thread
    can step.  It asks the machine about the threads it cares about
    ({!Ksim.Machine.can_step}, {!Ksim.Machine.first_runnable}, the
    pc-level queries) and builds {!Ksim.Machine.runnable} only when its
    choice needs the whole set.  Picking a thread that cannot step ends
    the run as a deadlock.  A policy value drives exactly one run: the
    schedule policies keep per-run state that only moves forward, so
    build a fresh one for every run. *)

val default_max_steps : int

val run : ?max_steps:int -> Ksim.Machine.t -> policy -> outcome
(** Runs under a [controller.run] telemetry span with step-loop
    counters (instructions stepped, context switches); when no sink is
    installed the instrumentation is a no-op and the outcome is
    bit-identical.  [m] must be a machine nothing else steps: on the
    compiled engine it is stale once the run takes a step, and the
    outcome's [final] is the newest machine of its own arena, so a
    retained outcome stays readable while later runs boot their own. *)

type recording
(** A run reduced to what re-derives it: the thread of every step,
    run-length encoded (no cap on thread ids), its step count, its
    reported verdict, and whether its final machine holds a failure. *)

val record : outcome -> recording

val replay : Ksim.Machine.t -> recording -> outcome
(** [replay m r] re-steps [r]'s threads through the same loop on [m], a
    fresh boot of the recorded run's engine and group.  The machine is
    deterministic, so the trace, step count and final machine equal the
    recorded run's (the final up to {!Ksim.Machine.fingerprint}), and
    the verdict is the one the run reported.  Uninstrumented: no span
    and no counter, as the run was accounted when it executed. *)

val derive : recording -> at:int -> tid:int -> recording
(** [derive r ~at ~tid] rearranges [r]'s steps without running them:
    the first [at] steps stay, then come all of thread [tid]'s later
    steps, then everyone else's later steps in their recorded order.
    It is the recording of the run that preempts the thread of step
    [at] for [tid] and lets [tid] finish, whenever [tid]'s moved steps
    are no lock operation, spawn or heap lifetime event, reorder no
    conflicting access, and moving [tid] changes no later run-queue
    insertion (LIFS checks all three on the parent's trace).  Step
    count, verdict and final failure are [r]'s. *)

val context_switches : Ksim.Machine.event list -> int
(** Context switches of a trace — the scheduling analogue of the
    hypervisor's breakpoint-hit count. *)

val verdict_name : verdict -> string
(** Short stable name ([completed], [failed], …) for telemetry args. *)

val pp_verdict : verdict Fmt.t
