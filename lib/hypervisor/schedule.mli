(** Schedules: how LIFS and Causality Analysis tell the hypervisor what
    to run.

    A {e preemption schedule} (reproduce schedule, §4.3) is an initial
    thread order plus scheduling points "after instruction I of thread
    T, switch to thread U"; between points each thread runs to
    completion.  A {e plan schedule} (diagnosis schedule, §4.5) is a
    total order of dynamic instructions to enforce; control flow may
    diverge from it — exactly the race-steered behaviour Causality
    Analysis observes — so enforcement is best-effort with bounded
    run-through, and lock holders are run when the planned thread
    blocks. *)

module Iid = Ksim.Access.Iid

type switch = {
  after : Iid.t;    (** preempt the thread after it executes this *)
  switch_to : int;  (** hand the CPU to this thread *)
}

type preemption = {
  order : int list;        (** run queue of top-level thread ids *)
  switches : switch list;  (** consumed in list order *)
}

val serial : int list -> preemption

val interleaving_count : preemption -> int
(** The paper's "interleaving count": number of forced preemptions. *)

val preemption_key : preemption -> string
(** Identity for memoization within one process; never persisted.
    Injective, and prefix-free: no key is a proper prefix of another,
    so a key with fields appended never equals another schedule's
    key. *)

val pp_switch : switch Fmt.t
val pp_preemption : preemption Fmt.t

val preemption_policy : preemption -> Controller.policy
(** Spawned background threads enter the run queue right after their
    spawner; the active thread runs until it finishes, blocks or hits a
    scheduling point. *)

val with_prologue : int list -> Controller.policy -> Controller.policy
(** Force resource-setup threads to run to completion, in order, before
    the wrapped policy takes over; a blocked prologue thread ends the
    run.  One-shot like every policy: the finished part of the prologue
    is latched, so once it is all done the wrapper costs nothing. *)

type plan = {
  events : Iid.t list;       (** the total order to enforce *)
  run_through_budget : int;  (** divergence tolerance per planned event *)
}

val plan : ?run_through_budget:int -> Iid.t list -> plan
val pp_plan : plan Fmt.t

val plan_policy : plan -> Controller.policy
