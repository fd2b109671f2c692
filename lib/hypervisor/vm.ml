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
  per_restore : float;   (* seconds to restore a mid-run snapshot *)
}

(* Calibrated from Table 2: LIFS runs ~0.08 s/schedule; CA schedules that
   fail add a reboot on the order of a second.  A mid-run snapshot
   restore is a memory revert, far cheaper than either. *)
let default_costs =
  { per_schedule = 0.083; per_reboot = 1.25; per_restore = 0.004 }

type stats = {
  mutable runs : int;
  mutable failures : int;
  mutable deadlocks : int;
  mutable steps : int;       (* trace steps, restored prefixes included *)
  mutable reverts : int;     (* snapshot restores (non-failing runs) *)
  mutable executed : int;    (* instructions actually executed *)
  mutable saved_steps : int; (* prefix instructions restored, not run *)
  mutable resumes : int;     (* runs resumed from a mid-run snapshot *)
  mutable sim_saved : float; (* modeled seconds saved by resuming *)
  mutable penalty : float;   (* modeled seconds added by retry backoff *)
  mutable last_run_failed : bool;
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
    stats =
      { runs = 0; failures = 0; deadlocks = 0; steps = 0; reverts = 0;
        executed = 0; saved_steps = 0; resumes = 0; sim_saved = 0.;
        penalty = 0.; last_run_failed = false } }

let group t = t.group
let faults t = t.faults
let engine t = t.engine

(* Boot a fresh guest: in the paper, restore the reproducer's memory
   snapshot.  An injected boot failure consumes the restore attempt and
   raises; the executor's retry loop handles it. *)
let boot t =
  t.stats.reverts <- t.stats.reverts + 1;
  Telemetry.Probe.count "vm.snapshot_restores";
  (match t.faults with
  | Some f when Faults.boot_fails f ->
    Telemetry.Probe.count "vm.boot_failures";
    raise Boot_failure
  | Some _ | None -> ());
  Ksim.Engine.boot t.engine t.group

let record t ~executed (o : Controller.outcome) =
  t.stats.runs <- t.stats.runs + 1;
  t.stats.steps <- t.stats.steps + o.steps;
  t.stats.executed <- t.stats.executed + executed;
  Telemetry.Probe.count "vm.runs";
  (match o.verdict with
  | Controller.Failed _ ->
    t.stats.failures <- t.stats.failures + 1;
    t.stats.last_run_failed <- true;
    (* A failing run forces a guest reboot — the dominant CA cost. *)
    Telemetry.Probe.count "vm.reboots"
  | Controller.Deadlock | Controller.Step_limit ->
    t.stats.deadlocks <- t.stats.deadlocks + 1;
    t.stats.last_run_failed <- false
  | Controller.Completed -> t.stats.last_run_failed <- false)

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

(* Run one schedule: on a fresh guest, or from [start], a restored
   mid-run snapshot, executing only the suffix beyond it.  In cost-model
   terms a restore replaces the fresh boot (and, when the previous run
   on this guest failed, the reboot that recovery would have required)
   — the savings accumulate in [sim_saved] so that with the cache
   disabled the accounting is bit-identical to before. *)
let run ?max_steps ?observe ?start t policy =
  let max_steps, policy, hang, flap = fault_plan t ~max_steps policy in
  let o =
    match start with
    | None -> Controller.run ?max_steps ?observe (boot t) policy
    | Some start -> Controller.resume ?max_steps ?observe start policy
  in
  let o = flap (settle t ~hang o) in
  let prefix =
    match start with
    | None -> 0
    | Some start ->
      let prefix = start.Controller.start_steps in
      t.stats.resumes <- t.stats.resumes + 1;
      t.stats.saved_steps <- t.stats.saved_steps + prefix;
      if t.stats.last_run_failed then
        t.stats.sim_saved <- t.stats.sim_saved +. t.costs.per_reboot;
      Telemetry.Probe.count "vm.resumes";
      (if o.steps > 0 then
         let share =
           t.costs.per_schedule *. float_of_int prefix /. float_of_int o.steps
         in
         t.stats.sim_saved <-
           t.stats.sim_saved +. Float.max 0. (share -. t.costs.per_restore));
      prefix
  in
  record t ~executed:(o.steps - prefix) o;
  o

(* Modeled seconds added by the resilience layer's exponential backoff:
   the paper's harness sleeps between reproduction attempts; ours adds
   the delay to the cost model instead of the host clock. *)
let penalize t seconds = t.stats.penalty <- t.stats.penalty +. seconds

let runs t = t.stats.runs
let failures t = t.stats.failures
let executed_steps t = t.stats.executed
let saved_steps t = t.stats.saved_steps
let resumes t = t.stats.resumes

(* Simulated wall-clock seconds under the cost model. *)
let simulated_seconds t =
  (float_of_int t.stats.runs *. t.costs.per_schedule)
  +. (float_of_int t.stats.failures *. t.costs.per_reboot)
  -. t.stats.sim_saved +. t.stats.penalty

let simulated_saved t = t.stats.sim_saved

let pp_stats ppf t =
  Fmt.pf ppf "runs=%d failures=%d deadlocks=%d steps=%d sim=%.1fs"
    t.stats.runs t.stats.failures t.stats.deadlocks t.stats.steps
    (simulated_seconds t)
