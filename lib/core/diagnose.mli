(** The AITIA manager (§4.1): modeling -> reproducing -> diagnosing.

    Input: the kernel program group (the guest), the ftrace execution
    history, and the crash report.  The manager slices the history
    backward from the failure, realizes each slice as a guest workload,
    runs LIFS until the failure reproduces, then runs Causality Analysis
    and assembles the causality chain. *)

type case = {
  case_name : string;
  subsystem : string;
  group : Ksim.Program.group;  (** all modeled threads (the guest) *)
  history : Trace.History.t;
}

type metrics = {
  mem_accessing_instrs : int;  (** access events in the failed execution *)
  races_detected : int;        (** individual data races in it *)
  races_in_chain : int;        (** after Causality Analysis *)
}

type report = {
  case : case;
  slices_tried : int;
  slice_threads : string list;
  lifs : Lifs.result;
  causality : Causality.result option;
  chain : Chain.t option;
  metrics : metrics option;
  degraded : bool;
      (** some decision exhausted its retry budget or was accepted
          below full quorum agreement: the chain is partial/low
          confidence *)
  resilience : Resilience.t option;
      (** retry/quorum accounting, when the resilient executor ran *)
  faults_injected : int;  (** faults injected during this diagnosis *)
}

val reproduced : report -> bool

val realize :
  case -> Trace.Slicer.t -> (Ksim.Program.group * int list) option
(** Restrict the guest to a slice's threads; resource-closure threads
    become the serial prologue (returned as thread indices). *)

val hints_of_group :
  Ksim.Program.group -> int list -> Analysis.Summary.hints
(** Static lockset/MHP hints for a realized slice: the prologue indices
    name the serial setup threads, everything else may interleave. *)

val diagnose :
  ?max_interleavings:int ->
  ?max_steps:int ->
  ?prune:Causality.prune ->
  ?order:Lifs.order ->
  ?snapshot_cache:bool ->
  ?slice_order:[ `Nearest_first | `Farthest_first ] ->
  ?faults:Hypervisor.Faults.t ->
  ?resilience:Resilience.policy ->
  ?journal:Journal.t ->
  ?engine:Ksim.Engine.kind ->
  ?on_run:
    (slice:int ->
    Hypervisor.Schedule.preemption ->
    Hypervisor.Controller.outcome ->
    unit) ->
  case ->
  report
(** The full pipeline.  Tries slices nearest-to-failure first until one
    reproduces (§4.2); [`Farthest_first] exists for the ablation.
    [prune] selects the static proofs: [`None] (default) is the
    hint-free pipeline; [`Invariants] runs
    {!Analysis.Candidates.analyze} on each realized slice and feeds the
    result to {!Lifs.search} so the frontier is visited Unguarded-first
    and statically Guarded candidate preemptions are skipped, builds
    the failure-relevance closure ({!Analysis.Absdom}) so LIFS skips
    frontier candidates preempting failure-irrelevant locations, and
    enables the {!Analysis.Flipfeas} pre-analysis in
    {!Causality.analyze} so provably infeasible or outcome-preserving
    flips are skipped before any VM execution; every other flip runs
    once, on the VM.
    [order:`Gain] replaces the breadth-first LIFS frontier with the
    expected-information-gain scheduler ({!Analysis.Gain}); it orders
    only the LIFS search, and Causality Analysis tests its flips in
    {!Causality.test_order} under either order.
    A diagnosis runs sequentially, one schedule at a time on one VM per
    stage; requests run in parallel only side by side ({!Batch.run}).
    [snapshot_cache] is deprecated, accepted and ignored: the prefix
    snapshot cache it enabled is gone, and it never changed a chain, a
    verdict or a schedule count.  It stays only because the benchmark
    harness ([perfbench/bench.ml]) still passes it; ROADMAP item 1
    removes it together with that call.

    [faults] arms deterministic fault injection on every VM the
    diagnosis creates; the executions then go through the resilient
    executor with the [resilience] policy (default
    {!Resilience.default_policy}) and the report carries the degraded
    flag and accounting.  [journal] checkpoints per-slice / per-flip
    progress to disk: rerunning the same diagnosis over the journal of
    an interrupted run replays finished work instead of re-executing it
    (the reproducing schedule is re-run once to rebuild machine state)
    and produces the same report.

    [engine] (default {!Ksim.Engine.default}) selects the machine
    implementation every VM of this diagnosis boots — the compiled
    in-place arena interpreter or the persistent reference semantics.
    Reports, flip logs and telemetry counters are identical across
    engines: test/test_engine.ml checks the machines step in lockstep,
    test/test_parity.ml checks whole diagnoses.  No CLI option or
    manifest field selects the engine; the CLI runs the default.

    [on_run] is {!Lifs.search}'s hook on every slice attempt's search:
    [slice] numbers the realized attempts from 0, so a reproducing
    report's runs are those with [slice = slices_tried - 1].  A slice
    replayed from the journal runs no search and reports no run.
    Without [on_run] the trace-equivalent runs LIFS derives are never
    stepped at all. *)
