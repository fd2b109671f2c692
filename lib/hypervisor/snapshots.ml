(* Prefix-sharing snapshot cache (our analogue of AITIA's VM snapshot
   tree).

   A "snapshot" is just keeping the machine reached after each step of
   a run.  On the reference engine that machine is a persistent value
   — copy-on-write through the persistent maps, no deep copy.  On the
   default compiled engine it is a handle into the run's arena, an
   undo-log mark: [store] freezes it, so the arena is only read from
   then on, and a restore clones the arena and rewinds it to the mark
   on its first step.  Either way a restore only changes where the
   next run starts.  A run's snapshots form one vector, keyed by the
   schedule that produced it; because consecutive schedules explored
   by LIFS differ by one appended switch, the vector of a schedule IS
   the snapshot tree path shared with all its children: a child run
   restores the parent's snapshot at its divergence point and executes
   only the suffix.  Causality Analysis flip plans likewise
   share a long prefix with the failure trace they permute, so each flip
   restores the snapshot just before the flipped race instead of
   rebooting.

   Soundness rests on two invariants, both checked at lookup time:

   - {e policy-state capture}: a snapshot stores not just the machine
     but the enforcement policy's run queue and not-yet-consumed
     switches, dumped right after the decision that produced the step.
     A preemption hit requires the pending list at the divergence point
     to be empty — every parent switch already consumed — so resuming
     with exactly the child's new switch pending is bit-identical to a
     fresh run (schedules whose switches fire out of order simply miss
     and fall back to a full run).

   - {e poisoning}: a failing run's final snapshot carries the failure
     verdict; restoring it would skip the failure manifestation path.
     Lookups never return a failed snapshot — [healthy] caps how deep a
     prefix may be reused, so the faulting step itself always
     re-executes.

   Shared tier: every public operation takes one cache-wide lock (a
   no-op mutex on the single-domain build), so one cache can back all
   workers of a pool.  Restoring a snapshot never mutates it (a
   persistent value, or a frozen handle the restore clones), so
   sharing needs no copying; the only new hazard under contention is
   the hit→store window: worker A restores a prefix from a parent
   vector, worker B poisons that vector (its restore was detected
   corrupted), and A would then store a child vector built on the bad
   prefix.  Each vector therefore
   carries a generation counter, bumped on poison; a preemption hit
   records the parent's generation and [store ~parent] silently drops
   the child when the recorded generation is stale. *)

module Iid = Ksim.Access.Iid

type snap = {
  machine : Ksim.Machine.t;
  trace_rev : Ksim.Machine.event list;  (* events 1..steps, reversed *)
  steps : int;
  queue : int list;                     (* policy run queue after the step *)
  pending : Schedule.switch list;       (* switches not yet consumed *)
}

type vector = {
  snaps : snap array;  (* snaps.(k) = position after k+1 steps *)
  iids : Iid.t array;  (* iids.(k) = the (k+1)-th executed instruction *)
  mutable healthy : int;  (* leading snaps whose machine has not failed;
                             forced to 0 when the entry is poisoned *)
  mutable generation : int;  (* bumped on poison; a hit records it so a
                                later store can detect the stale prefix *)
  bytes : int;         (* estimated footprint, for the LRU budget *)
  mutable tick : int;  (* LRU recency stamp *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable restored_instrs : int;  (* prefix instructions not re-executed *)
  mutable poisonings : int;           (* entries poisoned explicitly *)
  mutable poisoned_refusals : int;    (* lookups refused by poisoning *)
}

type t = {
  budget_bytes : int;
  tbl : (string, vector) Hashtbl.t;
  lock : Pool_backend.Lock.t;  (* guards tbl, stats, clock, totals *)
  mutable total_bytes : int;
  mutable clock : int;
  stats : stats;
}

let default_budget_bytes = 512 * 1024 * 1024

let create ?(budget_bytes = default_budget_bytes) () =
  { budget_bytes;
    tbl = Hashtbl.create 256;
    lock = Pool_backend.Lock.create ();
    total_bytes = 0;
    clock = 0;
    stats =
      { hits = 0; misses = 0; evictions = 0; restored_instrs = 0;
        poisonings = 0; poisoned_refusals = 0 } }

let locked t f = Pool_backend.Lock.protect t.lock f

(* A zero (or negative) budget disables the cache entirely: callers take
   the plain reboot path and behaviour is bit-identical to no cache. *)
let enabled t = t.budget_bytes > 0

let hits t = locked t (fun () -> t.stats.hits)
let misses t = locked t (fun () -> t.stats.misses)
let evictions t = locked t (fun () -> t.stats.evictions)
let restored_instrs t = locked t (fun () -> t.stats.restored_instrs)
let poisonings t = locked t (fun () -> t.stats.poisonings)
let poisoned_refusals t = locked t (fun () -> t.stats.poisoned_refusals)
let cached_vectors t = locked t (fun () -> Hashtbl.length t.tbl)
let cached_bytes t = locked t (fun () -> t.total_bytes)

(* Rough per-vector footprint for the LRU budget.  The budget bounds an
   estimate, not exact bytes, but the estimate must track the engine's
   actual representation: reference-engine snapshots share persistent
   map structure, so each one costs a handful of rewritten spine nodes
   (a flat per-step constant); compiled-engine snapshots sharing one
   arena cost their marginal undo-log delta, while a snapshot opening a
   fresh arena is charged a full clone.  [Ksim.Machine.snapshot_cost]
   measures each machine against its predecessor in the vector, and a
   fixed overhead covers the vector bookkeeping.  For a reference-engine
   vector of n snaps this reduces to the historical 1024 + 256*n. *)
let estimate_bytes (snaps : snap array) =
  let total = ref 1024 in
  Array.iteri
    (fun k s ->
      let prev = if k = 0 then None else Some snaps.(k - 1).machine in
      total := !total + Ksim.Machine.snapshot_cost ?prev s.machine)
    snaps;
  !total

let touch t v =
  t.clock <- t.clock + 1;
  v.tick <- t.clock

let lookup t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Telemetry.Probe.count "snapshot.misses";
    None
  | Some v ->
    touch t v;
    Some v

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key v acc ->
        match acc with
        | Some (_, best) when best.tick <= v.tick -> acc
        | _ -> Some (key, v))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (key, v) ->
    Hashtbl.remove t.tbl key;
    t.total_bytes <- t.total_bytes - v.bytes;
    t.stats.evictions <- t.stats.evictions + 1;
    Telemetry.Probe.count "snapshot.evictions"

(* Store the snapshot vector of a completed preemption run.  [base] is
   the shared prefix inherited from the parent vector when the run was
   itself resumed (empty for a full run); [suffix_rev] is what the
   controller observer captured, newest first.  [parent] names the
   vector (and its generation at hit time) the base prefix was restored
   from: if that vector has been poisoned since — possible only with
   concurrent workers — the child is built on a corrupted prefix and is
   silently dropped.  An evicted parent does not drop the store:
   eviction is benign and poisoned entries stay resident by design. *)
let store t ~key ?(parent : (string * int) option) ~(base : snap array)
    ~(suffix_rev : snap list) () =
  locked t (fun () ->
      let parent_fresh =
        match parent with
        | None -> true
        | Some (pkey, gen) -> (
          match Hashtbl.find_opt t.tbl pkey with
          | None -> true
          | Some pv -> pv.generation = gen)
      in
      if parent_fresh && enabled t && not (Hashtbl.mem t.tbl key) then (
        let snaps =
          Array.append base (Array.of_list (List.rev suffix_rev))
        in
        (* Freeze before publishing: a compiled-engine machine gives up
           its in-place fast path, so concurrent restores from other
           workers only ever read the shared arena.  No-op for
           reference machines. *)
        Array.iter (fun s -> Ksim.Machine.freeze s.machine) snaps;
        if Array.length snaps > 0 then (
          let iids =
            Array.map
              (fun s ->
                match s.trace_rev with
                | e :: _ -> e.Ksim.Machine.iid
                | [] -> assert false (* a snap always follows >= 1 step *))
              snaps
          in
          let healthy = ref (Array.length snaps) in
          Array.iteri
            (fun k s ->
              if !healthy = Array.length snaps
                 && Ksim.Machine.failed s.machine <> None
              then healthy := k)
            snaps;
          let bytes = estimate_bytes snaps in
          let v =
            { snaps; iids; healthy = !healthy; generation = 0; bytes;
              tick = 0 }
          in
          touch t v;
          Hashtbl.replace t.tbl key v;
          t.total_bytes <- t.total_bytes + bytes;
          while t.total_bytes > t.budget_bytes && Hashtbl.length t.tbl > 0 do
            evict_lru t
          done)))

(* Explicitly poison an entry — a restore from it was detected as
   corrupted (fault injection, or any future integrity check).  Forcing
   [healthy] to 0 makes every future lookup refuse the vector, so
   callers degrade to the reboot path; the entry stays resident (and
   counted) rather than deleted, mirroring the paper's quarantined
   snapshots. *)
let poison t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> ()
      | Some v ->
        if v.healthy > 0 then (
          v.healthy <- 0;
          v.generation <- v.generation + 1;
          t.stats.poisonings <- t.stats.poisonings + 1;
          Telemetry.Probe.count "snapshot.poisonings"))

(* A lookup walked into the poisoned (or failing) region of a vector
   and was refused: degraded-mode runs show up in [aitia stats] through
   this counter instead of failing silently. *)
let refuse_poisoned t =
  t.stats.poisoned_refusals <- t.stats.poisoned_refusals + 1;
  Telemetry.Probe.count "snapshot.poisoned_refusals"

(* --- preemption lookups ----------------------------------------------- *)

type preemption_hit = {
  start : Controller.start;
  resume_queue : int list;
  resume_switches : Schedule.switch list;
  base : snap array;  (* adjusted prefix snaps for re-capture *)
  vector_key : string;  (* the vector the start was restored from *)
  parent_generation : int;  (* its generation at hit time, for store *)
}

let start_of_snap (s : snap) : Controller.start =
  { Controller.start_machine = s.machine;
    start_trace_rev = s.trace_rev;
    start_steps = s.steps }

let index_of_iid (iids : Iid.t array) (iid : Iid.t) =
  let n = Array.length iids in
  let rec go k =
    if k >= n then None
    else if Iid.equal iids.(k) iid then Some k
    else go (k + 1)
  in
  go 0

let hit t (s : snap) =
  t.stats.hits <- t.stats.hits + 1;
  t.stats.restored_instrs <- t.stats.restored_instrs + s.steps;
  if Telemetry.Probe.installed () then (
    Telemetry.Probe.count "snapshot.hits";
    Telemetry.Probe.count ~by:s.steps "snapshot.restored_instrs")

(* The longest reusable prefix of a preemption schedule: the run of the
   same schedule minus its last switch, restored just after the step
   that triggers that switch. *)
let find_preemption t (sched : Schedule.preemption) : preemption_hit option =
  if not (enabled t) then None
  else
    match List.rev sched.Schedule.switches with
    | [] -> None (* a serial schedule has no parent prefix *)
    | last :: parent_rev ->
      locked t (fun () ->
          let parent =
            { sched with Schedule.switches = List.rev parent_rev }
          in
          let parent_key = Schedule.preemption_key parent in
          match lookup t parent_key with
          | None -> None
          | Some v -> (
            match index_of_iid v.iids last.Schedule.after with
            | None ->
              (* the trigger never executed in the parent run *)
              None
            | Some i ->
              let s = v.snaps.(i) in
              if i >= v.healthy || s.pending <> [] then (
                (* poisoned snapshot, or parent switches not all consumed
                   by the divergence point: fall back to a full run *)
                if i >= v.healthy then refuse_poisoned t;
                None)
              else (
                hit t s;
                (* For re-capture by the resumed run: the child's pending
                   list at each prefix position is the parent's plus the
                   new switch, still unconsumed there. *)
                let base =
                  Array.map
                    (fun (b : snap) ->
                      { b with pending = b.pending @ [ last ] })
                    (Array.sub v.snaps 0 (i + 1))
                in
                Some
                  { start = start_of_snap s;
                    resume_queue = s.queue;
                    resume_switches = [ last ];
                    base;
                    vector_key = parent_key;
                    parent_generation = v.generation })))

(* --- plan lookups ------------------------------------------------------ *)

type plan_hit = {
  plan_start : Controller.start;
  suffix : Schedule.plan;
  matched : int;  (* plan events satisfied by the restored prefix *)
}

(* The longest prefix of the plan that coincides with the stored run
   under [key] (for Causality Analysis: the failure run being
   permuted).  Along such a prefix the plan policy matches every event
   immediately, so restoring the snapshot and enforcing only the suffix
   plan is bit-identical to a fresh run. *)
let find_plan t ~key (plan : Schedule.plan) : plan_hit option =
  if not (enabled t) then None
  else
    locked t (fun () ->
        match lookup t key with
        | None -> None
        | Some v ->
          let rec matched k = function
            | ev :: rest
              when k < v.healthy
                   && k < Array.length v.iids
                   && Iid.equal v.iids.(k) ev ->
              matched (k + 1) rest
            | _ -> k
          in
          let l = matched 0 plan.Schedule.events in
          (* Did matching stop at the healthy cap rather than a genuine
             divergence?  Then poisoning is what refused (part of) the
             prefix. *)
          (if
             l >= v.healthy
             && l < Array.length v.iids
             &&
             match List.nth_opt plan.Schedule.events l with
             | Some ev -> Iid.equal v.iids.(l) ev
             | None -> false
           then refuse_poisoned t);
          if l = 0 then None
          else (
            let s = v.snaps.(l - 1) in
            hit t s;
            Some
              { plan_start = start_of_snap s;
                suffix = Schedule.plan_drop plan l;
                matched = l }))
