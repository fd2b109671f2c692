(* Running schedules on a VM and harvesting what AITIA needs from the
   run: the trace, the access database updates, and the races.

   Under fault injection (Hypervisor.Faults armed on the VM) every run
   goes through a resilience driver:

   - detectable transient faults (boot failures, hangs, missed
     preemptions, spurious switches) taint the attempt, which is
     retried with exponential backoff — modeled seconds charged to the
     VM cost model, never host sleeps;
   - snapshot-restore corruption is detected at the restore site: the
     bad cache entry is poisoned and the run degrades to the reboot
     path, no retry needed;
   - outcome flaps are undetectable on a single run, so when flaps are
     possible a clean run's verdict is confirmed by quorum: independent
     clean re-executions vote and the majority class wins, early-exit
     once a majority is certain (two agreeing runs, in the common
     case).  The accepted run is the earliest clean run of the winning
     class, and [confidence] is the vote share.

   Without faults the driver is bypassed entirely and every path is
   bit-identical to the fault-free build. *)

type run = {
  outcome : Hypervisor.Controller.outcome;
  confidence : float;
}

(* Capture a snapshot after every executed step: the machine plus the
   enforcement policy's dumped state, newest first. *)
let capture dump snaps_rev : Hypervisor.Controller.observer =
 fun m trace_rev steps ->
  let queue, pending = dump () in
  snaps_rev :=
    { Hypervisor.Snapshots.machine = m; trace_rev; steps; queue; pending }
    :: !snaps_rev

(* --- the resilience driver -------------------------------------------- *)

let no_retry =
  { Resilience.max_retries = 0; quorum = 1; backoff_base = 0. }

(* Verdict equivalence class for quorum voting: failures vote by their
   concrete failure (symptom and faulting instruction), every other
   verdict by its name. *)
let verdict_class (o : Hypervisor.Controller.outcome) =
  match o.verdict with
  | Hypervisor.Controller.Failed f -> "failed:" ^ Ksim.Failure.to_string f
  | v -> Hypervisor.Controller.verdict_name v

(* When even the retry budget cannot produce a booted run, synthesize a
   zero-step aborted outcome: diagnosis proceeds (degraded) instead of
   crashing or hanging. *)
let aborted (vm : Hypervisor.Vm.t) =
  { outcome =
      { Hypervisor.Controller.verdict = Hypervisor.Controller.Step_limit;
        trace = [];
        final =
          Ksim.Engine.boot (Hypervisor.Vm.engine vm) (Hypervisor.Vm.group vm);
        steps = 0 };
    confidence = 0. }

type attempt_outcome = Clean of run | Exhausted of run option

let resilient ?resilience (vm : Hypervisor.Vm.t)
    (attempt : unit -> run) : run =
  match Hypervisor.Vm.faults vm with
  | None -> attempt ()
  | Some f ->
    let policy, stats =
      match (resilience : Resilience.t option) with
      | Some r -> (r.policy, Some r.stats)
      | None -> (no_retry, None)
    in
    (* One clean (untainted) run, retrying tainted or boot-aborted
       attempts with exponential backoff until the budget runs out. *)
    let rec clean_attempt k =
      Hypervisor.Faults.start_attempt f;
      let res =
        match attempt () with
        | r -> Some r
        | exception Hypervisor.Vm.Boot_failure -> None
      in
      let tainted = Hypervisor.Faults.tainted f || res = None in
      match (tainted, res) with
      | false, Some r -> Clean r
      | false, None -> assert false (* a boot abort always taints *)
      | true, _ ->
        if k < policy.max_retries then (
          (match stats with
          | Some s -> s.retries <- s.retries + 1
          | None -> ());
          Telemetry.Probe.count "resilience.retries";
          let delay = policy.backoff_base *. (2. ** float_of_int k) in
          if delay > 0. then (
            Hypervisor.Vm.penalize vm delay;
            match stats with
            | Some s -> s.backoff_simulated <- s.backoff_simulated +. delay
            | None -> ());
          clean_attempt (k + 1))
        else Exhausted res
    in
    let give_up res =
      (match stats with
      | Some s -> s.gave_up <- s.gave_up + 1
      | None -> ());
      Telemetry.Probe.count "resilience.gave_up";
      match res with
      | Some r -> { r with confidence = 0. }
      | None -> aborted vm
    in
    let quorum_vote first =
      (* Gather clean runs until some verdict class holds a certain
         majority of the quorum, voting stops early, or the retry
         budget dies mid-quorum. *)
      let need = (policy.quorum / 2) + 1 in
      let votes = ref [ first ] in
      let exhausted = ref false in
      let count c =
        List.length
          (List.filter
             (fun r -> String.equal (verdict_class r.outcome) c)
             !votes)
      in
      let decided () =
        List.exists (fun r -> count (verdict_class r.outcome) >= need) !votes
      in
      while
        (not !exhausted) && (not (decided ()))
        && List.length !votes < policy.quorum
      do
        match clean_attempt 0 with
        | Clean r ->
          (match stats with
          | Some s -> s.quorum_runs <- s.quorum_runs + 1
          | None -> ());
          Telemetry.Probe.count "resilience.quorum_runs";
          votes := !votes @ [ r ]
        | Exhausted _ ->
          exhausted := true;
          (match stats with
          | Some s -> s.gave_up <- s.gave_up + 1
          | None -> ());
          Telemetry.Probe.count "resilience.gave_up"
      done;
      (* Majority class, ties broken by earliest appearance; the
         accepted run is the earliest clean run of that class, so a
         genuine (unflapped) run is returned whenever the majority is
         genuine. *)
      let best =
        List.fold_left
          (fun acc r ->
            let c = verdict_class r.outcome in
            match acc with
            | Some b when count b >= count c -> acc
            | _ -> Some c)
          None !votes
      in
      let best = Option.get best in
      let representative =
        List.find
          (fun r -> String.equal (verdict_class r.outcome) best)
          !votes
      in
      let agree = count best and tot = List.length !votes in
      let confidence = float_of_int agree /. float_of_int tot in
      if agree < tot then (
        (match stats with
        | Some s ->
          s.quorum_disagreements <- s.quorum_disagreements + 1;
          s.low_confidence <- s.low_confidence + 1
        | None -> ());
        Telemetry.Probe.count "resilience.quorum_disagreements");
      { representative with confidence }
    in
    (match clean_attempt 0 with
    | Exhausted res -> give_up res
    | Clean r ->
      if Hypervisor.Faults.flappy f && policy.quorum > 1 then quorum_vote r
      else r)

(* --- one attempt body per schedule kind --------------------------------- *)

(* The cache an attempt may use: one is enabled and the attempt
   enforces the schedule as given.  An injected breakpoint miss
   rewrites the schedule the hypervisor actually enforces, and a
   perturbed attempt must not touch the cache: neither look up (the
   prefix belongs to the unperturbed schedule) nor store (the vector
   would be filed under the wrong key). *)
let usable ~missed cache =
  (not missed) && Hypervisor.Snapshots.enabled cache

(* A hit whose restore is detected as corrupted poisons [source], the
   vector it came from, so nothing restores from it again, and the run
   degrades to the reboot path. *)
let restorable (vm : Hypervisor.Vm.t) cache ~source hit =
  let corrupted () =
    match Hypervisor.Vm.faults vm with
    | Some f -> Hypervisor.Faults.corrupt_restore f
    | None -> false
  in
  match hit with
  | Some h when corrupted () ->
    Hypervisor.Snapshots.poison cache ~key:(source h);
    None
  | Some _ | None -> hit

(* A tainted run executed perturbed steps (hang truncation is harmless
   but incomplete; a spurious switch diverges from the schedule): its
   snapshots are never stored. *)
let untainted (vm : Hypervisor.Vm.t) =
  match Hypervisor.Vm.faults vm with
  | Some f -> not (Hypervisor.Faults.tainted f)
  | None -> true

(* A hit only changes where the run starts: the restored position and
   the policy's dumped state (the parent's run queue with exactly the
   child's new switch pending), instead of a fresh boot under the
   schedule's own order and switches.  With the cache every executed
   step is captured, and the run's vector is stored under its schedule
   for future children, on top of the restored prefix. *)
let run_preemption ?max_steps ?(prologue = []) ?snapshots ?resilience
    (vm : Hypervisor.Vm.t) (sched : Hypervisor.Schedule.preemption) : run =
  Telemetry.Probe.with_span ~cat:"executor" "executor.preemption"
  @@ fun () ->
  Telemetry.Probe.count "executor.preemption_runs";
  resilient ?resilience vm @@ fun () ->
  let enforced, missed =
    match Hypervisor.Vm.faults vm with
    | Some f ->
      let switches, missed =
        Hypervisor.Faults.drop_switches f sched.Hypervisor.Schedule.switches
      in
      ({ sched with Hypervisor.Schedule.switches }, missed)
    | None -> (sched, false)
  in
  let cache =
    match snapshots with
    | Some c when usable ~missed c -> Some c
    | Some _ | None -> None
  in
  let hit =
    Option.bind cache (fun c ->
        restorable vm c
          ~source:(fun (h : Hypervisor.Snapshots.preemption_hit) ->
            h.vector_key)
          (Hypervisor.Snapshots.find_preemption c enforced))
  in
  let start, queue, switches, base, parent =
    match hit with
    | Some h ->
      (* [parent] remembers where the base prefix came from: if that
         vector gets poisoned by a concurrent worker before we store,
         the store must be dropped. *)
      ( Some h.start, h.resume_queue, h.resume_switches, h.base,
        Some (h.vector_key, h.parent_generation) )
    | None -> (None, enforced.order, enforced.switches, [||], None)
  in
  let policy, dump = Hypervisor.Schedule.queue_policy ~queue ~switches in
  let snaps_rev = ref [] in
  let outcome =
    Hypervisor.Vm.run ?max_steps
      ?observe:(Option.map (fun _ -> capture dump snaps_rev) cache)
      ?start vm
      (Hypervisor.Schedule.with_prologue prologue policy)
  in
  (match cache with
  | Some c when untainted vm ->
    Hypervisor.Snapshots.store c
      ~key:(Hypervisor.Schedule.preemption_key enforced)
      ?parent ~base ~suffix_rev:!snaps_rev ()
  | Some _ | None -> ());
  { outcome; confidence = 1. }

(* Plan runs (Causality Analysis flips) only look snapshots up — each
   flip is executed once, so caching its own suffix buys nothing; the
   payoff is restoring the failure run's prefix under [key] and
   enforcing only the suffix plan instead of rebooting. *)
let run_plan ?max_steps ?(prologue = []) ?snapshots ?resilience
    (vm : Hypervisor.Vm.t) (plan : Hypervisor.Schedule.plan) : run =
  Telemetry.Probe.with_span ~cat:"executor" "executor.plan" @@ fun () ->
  Telemetry.Probe.count "executor.plan_runs";
  resilient ?resilience vm @@ fun () ->
  let enforced, missed =
    match Hypervisor.Vm.faults vm with
    | Some f -> Hypervisor.Faults.drop_plan_event f plan
    | None -> (plan, false)
  in
  let hit =
    match snapshots with
    | Some (c, key) when usable ~missed c ->
      restorable vm c ~source:(fun _ -> key)
        (Hypervisor.Snapshots.find_plan c ~key enforced)
    | Some _ | None -> None
  in
  let start, plan =
    match hit with
    | Some h -> (Some h.plan_start, h.suffix)
    | None -> (None, enforced)
  in
  let outcome =
    Hypervisor.Vm.run ?max_steps ?start vm
      (Hypervisor.Schedule.with_prologue prologue
         (Hypervisor.Schedule.plan_policy plan))
  in
  { outcome; confidence = 1. }

(* Update the cross-run access database from a run, keyed by stable
   thread base names. *)
let learn (db : Ksim.Kcov.db) (r : run) =
  Ksim.Kcov.add_trace
    ~thread_base:(Ksim.Machine.thread_base r.outcome.final)
    db r.outcome.trace

let failed (r : run) =
  match r.outcome.verdict with
  | Hypervisor.Controller.Failed f -> Some f
  | _ -> None
