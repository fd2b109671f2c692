(* Virtual-machine instances with run accounting.

   The paper launches 32 guest VMs; each schedule is one run of a guest,
   and a run that ends in a kernel failure forces a VM reboot — the
   dominant cost of Causality Analysis ("most of interleavings executed
   by Causality Analysis cause a failure.  When a failure occurs, AITIA
   has to reboot the virtual machine", §5.1).  Our substrate reverts a
   persistent machine value instead, so we model those costs explicitly
   to preserve the LIFS-cheap / CA-expensive time shape. *)

type cost_model = {
  per_schedule : float;  (* seconds per enforced schedule (VM run) *)
  per_reboot : float;    (* extra seconds when a run ends in a failure *)
}

(* Calibrated from Table 2: LIFS runs ~0.08 s/schedule; CA schedules that
   fail add a reboot on the order of a second. *)
let default_costs = { per_schedule = 0.083; per_reboot = 1.25 }

type stats = {
  mutable runs : int;
  mutable failures : int;
  mutable executed : int;    (* instructions executed *)
  mutable penalty : float;   (* modeled seconds added by retry backoff *)
}

type t = {
  group : Ksim.Program.group;
  costs : cost_model;
  stats : stats;
  faults : Faults.t option;
  engine : Ksim.Engine.kind;
}

exception Boot_failure

let create ?(costs = default_costs) ?faults ?(engine = Ksim.Engine.default)
    group =
  { group; costs; faults; engine;
    stats = { runs = 0; failures = 0; executed = 0; penalty = 0. } }

let group t = t.group
let faults t = t.faults
let engine t = t.engine

(* Boot a fresh guest: in the paper, restore the reproducer's memory
   snapshot.  An injected boot failure consumes the restore attempt and
   raises; the executor's retry loop handles it. *)
let boot t =
  Telemetry.Probe.count "vm.snapshot_restores";
  (match t.faults with
  | Some f when Faults.boot_fails f ->
    Telemetry.Probe.count "vm.boot_failures";
    raise Boot_failure
  | Some _ | None -> ());
  Ksim.Engine.boot t.engine t.group

let record t (o : Controller.outcome) =
  t.stats.runs <- t.stats.runs + 1;
  t.stats.executed <- t.stats.executed + o.steps;
  Telemetry.Probe.count "vm.runs";
  match o.verdict with
  | Controller.Failed _ ->
    t.stats.failures <- t.stats.failures + 1;
    (* A failing run forces a guest reboot — the dominant CA cost. *)
    Telemetry.Probe.count "vm.reboots"
  | Controller.Deadlock | Controller.Step_limit | Controller.Completed -> ()

(* Per-run fault decisions: an injected hang caps the watchdog budget
   below the caller's limit (the run is truncated but every executed
   step is genuine), a spurious extra switch perturbs one scheduling
   decision, and a flap rewrites the verdict after the fact.  Without
   faults the run path is untouched. *)
let fault_plan t ~max_steps policy =
  match t.faults with
  | None -> (max_steps, policy, None, Fun.id)
  | Some f ->
    let limit = Option.value ~default:Controller.default_max_steps max_steps in
    let hang = Faults.plan_hang f ~max_steps:limit in
    let capped =
      match hang with Some h -> Some (min h limit) | None -> max_steps
    in
    (capped, Faults.wrap_policy f policy, hang, Faults.flap f)

let settle t ~hang (o : Controller.outcome) =
  (match (t.faults, hang) with
  | Some f, Some h
    when o.verdict = Controller.Step_limit && o.steps >= h ->
    Faults.note_hang f
  | _ -> ());
  o

(* Run one schedule on a fresh guest. *)
let run ?max_steps t policy =
  let max_steps, policy, hang, flap = fault_plan t ~max_steps policy in
  let o = flap (settle t ~hang (Controller.run ?max_steps (boot t) policy)) in
  record t o;
  o

(* Modeled seconds added by the resilience layer's exponential backoff:
   the paper's harness sleeps between reproduction attempts; ours adds
   the delay to the cost model instead of the host clock. *)
let penalize t seconds = t.stats.penalty <- t.stats.penalty +. seconds

let runs t = t.stats.runs
let failures t = t.stats.failures
let executed_steps t = t.stats.executed

(* Simulated wall-clock seconds under the cost model. *)
let simulated_seconds t =
  (float_of_int t.stats.runs *. t.costs.per_schedule)
  +. (float_of_int t.stats.failures *. t.costs.per_reboot)
  +. t.stats.penalty
