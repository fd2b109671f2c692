(** Virtual-machine instances with run accounting.

    Each schedule is one run of a guest; a run ending in a kernel
    failure forces a VM reboot — the dominant cost of Causality Analysis
    in the paper (§5.1).  The substrate reverts a persistent machine
    instead, so these costs are modeled explicitly to preserve the
    LIFS-cheap / CA-expensive time shape. *)

type cost_model = {
  per_schedule : float;  (** seconds per enforced schedule *)
  per_reboot : float;    (** extra seconds when a run fails *)
}

val default_costs : cost_model
(** Calibrated from Table 2's per-schedule rates. *)

type t

exception Boot_failure
(** An injected guest-boot failure (see {!Faults}); raised by {!run}
    before any step executes.  The executor's retry loop is the
    intended handler. *)

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

val run : ?max_steps:int -> t -> Controller.policy -> Controller.outcome
(** Run one schedule on a freshly booted guest (a snapshot restore, in
    the paper's terms), recording the outcome.  Under fault injection
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
(** Instructions executed over every run. *)

val simulated_seconds : t -> float
(** Wall-clock estimate under the cost model. *)
