(** Causality Analysis (§3.4).

    From the failure-causing instruction sequence, pop data races from
    the back, flip each one while keeping the other orders, and
    re-execute: a race whose flip averts the failure is a root cause; a
    race whose flip leaves the kernel failing is benign.  Flips of
    root-cause races that erase other root-cause races (race-steered
    control flows) yield causality edges.  Critical sections are flipped
    as units; a race surrounding a nested root cause is ambiguous. *)

type verdict = Root_cause | Benign

type tested = {
  race : Race.t;
  verdict : verdict;
  flip_verdict : Hypervisor.Controller.verdict option;
      (** the flip run's verdict; [None] when the flip was statically
          pruned (never executed) or replayed from a journal *)
  pruned : string option;
      (** the flip-feasibility proof that skipped the re-run, if any *)
  disappeared : Race.t list;
      (** test-set races absent from the surviving flipped run *)
  ambiguous : bool;
  enforced : bool;
      (** did the flipped order actually execute? (ablation metric;
          false for statically pruned flips) *)
  confidence : float;
      (** 1.0 normally; the quorum vote share when fault-injected
          re-runs disagreed; 0.0 when the retry budget was exhausted *)
}

type stats = {
  schedules : int;
  flips_statically_pruned : int;
      (** flips proven Benign by the flip-feasibility pre-analysis,
          skipped before any VM execution *)
  simulated : float;
  executed_instrs : int;  (** instructions executed *)
}

val zero_stats : stats
(** All-zero identity for [stats_base]. *)

type prune = [ `None | `Invariants ]
(** What may skip a flip re-run: nothing, or the flip-feasibility
    pre-analysis ({!Analysis.Flipfeas}) that [`Invariants] runs on
    every flip plan. *)

val prune_names : (string * prune) list
(** The user-facing names of the pruning levels, read by the CLI's
    [--prune] and the batch manifest's ["prune"] field. *)

type result = {
  tested : tested list;           (** in testing order *)
  root_causes : Race.t list;      (** in trace order *)
  benign : Race.t list;
  edges : (Race.t * Race.t) list; (** (r1, r2): flipping r1 removes r2 *)
  ambiguous : Race.t list;
  stats : stats;
}

type section = {
  cs_tid : int;
  cs_lock : string;
  cs_start : int;
  cs_stop : int option;
}

val critical_sections : Analysis.Flipfeas.ctx -> section list
(** Lock sections of the context's failing trace, by trace index. *)

val flip_plan : Analysis.Flipfeas.ctx -> Race.t -> Hypervisor.Schedule.plan
(** The diagnosis schedule enforcing [second => first] while preserving
    the rest of the failing sequence: critical sections move as units,
    background threads' spawning instructions are hoisted along, pending
    second endpoints are inserted before the first. *)

val test_order :
  ?direction:[ `Backward | `Forward ] -> Race.t list -> Race.t list
(** Backward (latest second access first) by default, nested races
    always before the races surrounding them; [`Forward] exists for the
    ablation study. *)

val analyze :
  ?max_steps:int ->
  ?prologue:int list ->
  ?direction:[ `Backward | `Forward ] ->
  ?prune:prune ->
  ?resilience:Resilience.t ->
  ?replay:(Race.t -> tested option) ->
  ?checkpoint:(tested -> stats -> unit) ->
  ?stats_base:stats ->
  Hypervisor.Vm.t ->
  failing:Hypervisor.Controller.outcome ->
  races:Race.t list ->
  unit ->
  result
(** [prune] (default [`None]): under [`Invariants], flips proven
    infeasible or outcome-preserving are marked Benign without a VM run
    and counted in [stats.flips_statically_pruned];
    every other flip runs once, through {!Executor.run_plan}.

    Every flip is tested on [vm], one at a time, in {!test_order}.

    [resilience] supplies the retry/quorum policy when the VM injects
    faults.  The remaining three parameters implement resumable
    diagnosis: [replay] maps a race to its already-journaled verdict —
    a hit skips the flip re-run entirely (ambiguity and edges are
    recomputed over the full tested list, so a resumed analysis yields
    the same result); [checkpoint] is invoked after every flip decided
    here (executed or statically pruned, not replayed) with the fresh
    verdict and the cumulative stats so far;
    [stats_base] (default {!zero_stats}) is the journaled progress of
    the interrupted run, folded into the returned [stats] (except
    [flips_statically_pruned], recomputed from the final tested list). *)
