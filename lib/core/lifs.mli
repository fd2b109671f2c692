(** Least Interleaving First Search (§3.3): reproduce a reported failure
    by exploring interleavings of conflicting instructions, fewest
    preemptions first, with DPOR-style pruning of equivalent extensions,
    on-the-fly discovery of accesses revealed by race-steered control
    flows, and trace-equivalent extensions derived from their parent's
    run instead of run. *)

type stats = {
  schedules : int;      (** runs actually executed *)
  pruned : int;         (** candidates skipped as equivalent *)
  static_pruned : int;  (** candidates skipped as statically Guarded *)
  invariant_pruned : int;
      (** candidates skipped because the preempted location cannot
          influence the failure predicate (relevance closure) *)
  gain_reorderings : int;
      (** candidates the gain scheduler popped out of discovery order *)
  trace_equivalent : int;
      (** admitted candidates derived, not run: [schedules +
          trace_equivalent] is the number of runs the search explored *)
  interleavings : int;  (** interleaving count of the failing schedule *)
  simulated : float;    (** modeled guest seconds (Vm cost model) *)
  executed_instrs : int;  (** instructions executed *)
}

type success = {
  schedule : Hypervisor.Schedule.preemption;
  outcome : Hypervisor.Controller.outcome;
  failure : Ksim.Failure.t;
  races : Race.t list;  (** all races of the failure-causing sequence *)
}

type result = {
  found : success option;
  stats : stats;
  runs :
    (Hypervisor.Schedule.preemption * Hypervisor.Controller.outcome) list;
    (** the reproducing run ([found]'s schedule and outcome), or nothing;
        every executed run goes to [search]'s [on_run] instead *)
}

type order = [ `Fixed | `Gain ]
(** Search order: the paper's breadth-first phases, or the
    expected-information-gain queue ({!Analysis.Gain}).  Causality
    Analysis has one order of its own ([Causality.test_order]). *)

val order_names : (string * order) list
(** The user-facing names of the orders, read by the CLI's [--order]
    and the batch manifest's ["order"] field: ["backward"] is
    [`Fixed]. *)

val default_max_interleavings : int

val permutations : 'a list -> 'a list list

val search :
  ?max_interleavings:int ->
  ?max_steps:int ->
  ?prologue:int list ->
  ?prune:bool ->
  ?static_hints:Analysis.Summary.hints ->
  ?invariants:Analysis.Absdom.t ->
  ?focus:int ->
  ?order:order ->
  ?resilience:Resilience.t ->
  ?on_run:
    (Hypervisor.Schedule.preemption -> Hypervisor.Controller.outcome -> unit) ->
  Hypervisor.Vm.t ->
  target:(Ksim.Failure.t -> bool) ->
  unit ->
  result
(** [prologue] threads are forced to run serially first (resource
    setup); [prune:false] disables equivalence pruning (ablation).
    [static_hints] (from {!Analysis.Candidates.analyze}) reorders each
    frontier Unguarded-first and drops candidate preemptions whose every
    conflicting target pair is statically Guarded (counted in
    [static_pruned]); omitting it leaves the search bit-identical to the
    hint-free behaviour.  [invariants] (the failure-relevance closure of
    {!Analysis.Absdom}) additionally groups candidates into invariant
    classes — anchors separated only by straight-line instructions
    whose shared accesses hit irrelevant globals yield executions the
    error invariant proves failure-equivalent — and runs only each
    class representative (members are counted in [invariant_pruned]).
    [order:`Gain] replaces the breadth-first phases with a best-first
    queue ordered by expected information gain ({!Analysis.Gain}): one
    serial run seeds the race database, then promising preemptions run
    before the remaining serial orders, executed runs are re-extended
    as later serials complete the database, and sites that keep failing
    to reproduce decay.  [focus] (the thread holding the reported crash
    site) runs the serial orders starting with that thread first.

    Every admitted candidate runs on [vm], one at a time and in order,
    and the search ends at the first run whose failure satisfies
    [target]: nothing past it is run.  The breadth-first order without
    an armed fault injector derives some candidates instead: one whose
    parent completed and whose new preemption hands the CPU to a thread
    [u] that then runs to its end reorders no conflicting pair when
    none of [u]'s moved steps is a lock operation, spawn, alloc or free
    and none conflicts with a step it overtakes; it must also leave the
    run queue's later insertions as they were (no later spawn by a
    thread that already had a child, unless [u] is one).  Its run is the
    parent's with [u]'s steps moved ({!Hypervisor.Controller.derive}):
    it completes and teaches the access database nothing, so it is
    admitted, keyed and extended like a run, counted in
    [trace_equivalent] and [lifs.trace_equivalent], and never stepped
    on [vm].  The explored set, the reproducing run and every chain
    are those of running every candidate.

    [on_run] sees every explored run, in order, right after it was
    admitted (the reproducing run last); it is the only way to see the
    runs that did not reproduce.  A derived run reaches it through an
    uncounted {!Hypervisor.Controller.replay}, so without [on_run] a
    derived run is never stepped.  The search itself keeps each run
    only as its schedule and step sequence, and re-derives a parent's
    trace by re-stepping it when extending it (counted in
    [lifs.replayed_runs] and [lifs.replayed_steps]; no VM run, fault
    draw or VM accounting).

    [resilience] supplies the retry/quorum policy when the VM
    injects faults; without faults it changes nothing. *)
