(** Virtual-machine instances with run accounting.

    Each schedule is one run of a guest; a run ending in a kernel
    failure forces a VM reboot — the dominant cost of Causality Analysis
    in the paper (§5.1).  The substrate reverts a persistent machine
    instead, so these costs are modeled explicitly to preserve the
    LIFS-cheap / CA-expensive time shape. *)

type cost_model = {
  per_schedule : float;  (** seconds per enforced schedule *)
  per_reboot : float;    (** extra seconds when a run fails *)
  per_restore : float;   (** seconds to restore a mid-run snapshot *)
}

val default_costs : cost_model
(** Calibrated from Table 2's per-schedule rates; a mid-run snapshot
    restore is a memory revert, far cheaper than a schedule or a
    reboot. *)

type t

exception Boot_failure
(** An injected guest-boot failure (see {!Faults}); raised by {!boot}
    and by {!run} before any step executes.  The executor's retry loop
    is the intended handler. *)

val create :
  ?costs:cost_model -> ?faults:Faults.t -> ?engine:Ksim.Engine.kind ->
  Ksim.Program.group -> t
(** [faults] arms fault injection for every run of this VM; omitted,
    all paths are bit-identical to the fault-free build.  [engine]
    selects the machine implementation every boot of this guest uses
    (default {!Ksim.Engine.default}). *)

val group : t -> Ksim.Program.group

val faults : t -> Faults.t option

val engine : t -> Ksim.Engine.kind

val boot : t -> Ksim.Machine.t
(** A fresh guest (a snapshot restore, in the paper's terms).
    @raise Boot_failure when fault injection fails the boot. *)

val run :
  ?max_steps:int -> ?observe:Controller.observer ->
  ?start:Controller.start -> t -> Controller.policy -> Controller.outcome
(** Run one schedule, recording the outcome.  Without [start] the run
    boots a fresh guest; with it, the run continues from that restored
    mid-run snapshot and only the suffix beyond it executes, but the
    outcome covers the whole run exactly as a fresh run would report
    it.  Only a run with [start] counts in {!resumes} and
    {!saved_steps}, and credits [simulated_saved] with the modeled cost
    of the restored prefix (and of the reboot the restore made
    unnecessary, when the previous run failed).  Under fault injection
    the run may be truncated by an injected hang (verdict
    [Step_limit]), perturbed by a spurious extra context switch, or
    have its verdict flapped; see {!Faults}.
    @raise Boot_failure when fault injection fails the boot. *)

val penalize : t -> float -> unit
(** Add modeled seconds to the cost model — the resilience layer's
    exponential backoff between retries, charged to simulated time
    instead of the host clock. *)

val runs : t -> int
val failures : t -> int
val executed_steps : t -> int
(** Instructions actually executed — excludes restored prefixes. *)

val saved_steps : t -> int
(** Prefix instructions obtained from snapshots instead of execution. *)

val resumes : t -> int

val simulated_seconds : t -> float
(** Wall-clock estimate under the cost model, net of snapshot savings. *)

val simulated_saved : t -> float
(** Modeled seconds the snapshot cache saved ([0.] when disabled). *)

val pp_stats : t Fmt.t
