(* Least Interleaving First Search (§3.3).

   LIFS reproduces a reported failure by exploring interleavings of
   conflicting instructions, fewest preemptions first:

   - interleaving count 0: the serial executions (every order of the
     top-level threads), which also seed the access database;
   - interleaving count k: every schedule of count k-1 extended by one
     more preemption, placed after an instruction known (from the access
     database accumulated so far) to conflict with another thread, and
     switching to a thread known to access the same location.  This is
     the DPOR-flavoured restriction to conflicting instructions, and
     newly discovered accesses (race-steered control flows) enter the
     database dynamically and extend the search space on the fly.

   Equivalent extensions — identical executed prefix and identical switch
   target — are pruned and counted, mirroring the partial-order-reduction
   skips of Figure 5.

   Every candidate, in either order, goes through one function: the
   admission check, the run on the search's VM, and the accounting.  A
   frontier is walked in order and the gain queue popped one candidate
   at a time, each step after the previous run was accounted, and the
   walk ends at the reproduction.

   The search keeps each executed run only as its schedule and its
   step sequence ({!Controller.recording}): what it needs of a run is
   the access database, fed right after the run, and the run's trace
   and final machine when it is extended as a parent.  Those are
   re-derived by re-stepping the sequence on a fresh boot, only for
   the parent being extended, so one replayed trace is live at a time.
   The machine is deterministic and every accepted trace is a genuine
   execution (flaps rewrite only the verdict, injected hangs only
   truncate the trace, spurious switches show in the recorded threads),
   so the replay is the run. *)

module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule
module Controller = Hypervisor.Controller

let src = Logs.Src.create "aitia.lifs" ~doc:"Least Interleaving First Search"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  schedules : int;        (* runs actually executed *)
  pruned : int;           (* candidate schedules skipped as equivalent *)
  static_pruned : int;    (* candidates skipped as statically Guarded *)
  invariant_pruned : int; (* candidates skipped as failure-irrelevant
                             (error-invariant relevance closure) *)
  gain_reorderings : int; (* times the gain scheduler popped a candidate
                             out of discovery order *)
  interleavings : int;    (* interleaving count of the failing schedule *)
  simulated : float;      (* modeled guest seconds (Vm cost model) *)
  executed_instrs : int;  (* instructions executed *)
}

type success = {
  schedule : Schedule.preemption;
  outcome : Controller.outcome;
  failure : Ksim.Failure.t;
  races : Race.t list;    (* all races of the failure-causing sequence *)
}

type result = {
  found : success option;
  stats : stats;
  runs : (Schedule.preemption * Controller.outcome) list;
      (* the reproducing run, or nothing *)
}

let default_max_interleavings = 3

(* All permutations of a list. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* Index (in the trace) after which a new preemption may be placed: all
   existing switches must already have fired. *)
let extension_start (sched : Schedule.preemption)
    (trace : Ksim.Machine.event array) =
  match List.rev sched.switches with
  | [] -> 0
  | { after; _ } :: _ ->
    let idx = ref 0 in
    Array.iteri
      (fun i (e : Ksim.Machine.event) ->
        if Iid.equal e.iid after then idx := i + 1)
      trace;
    !idx

(* Candidate one-preemption extensions of an executed run, each paired
   with its equivalence signature (parent schedule, static preemption
   site, accessed location and switch target) and a static priority
   rank.  Candidates that differ only in the dynamic occurrence of the
   same static site (e.g. every iteration of a statistics loop) are
   equivalent in the DPOR sense — they order the same conflicting
   accesses — and are pruned by the caller (the "skip" nodes of
   Figure 5).  Prologue (resource-setup) threads are forced serial, so
   preempting them is pointless and they are skipped.

   When static hints are present, each candidate is ranked by the
   lockset classification of its (preempted site, target site) pairs —
   Unguarded first, then Ambiguous, then unknown — and a candidate all
   of whose target pairs are proven Guarded is dropped entirely: a
   common must-lock serializes the accesses, so the preemption cannot
   order them differently (returned as the second component, the
   statically-pruned count).  Without hints every candidate gets the
   same neutral rank and nothing is dropped: behaviour is bit-identical
   to the hint-free search.

   When a failure-relevance closure is supplied ([invariants], see
   Analysis.Absdom), candidates are grouped
   into invariant classes: two candidates with the same parent, switch
   target and static rank whose anchors are separated only by
   displaceable instructions of the same thread — straight-line code
   whose only shared accesses hit global locations outside the
   relevance closure — produce executions that differ exactly in the
   placement of those irrelevant instructions around the target
   thread's run, so the error invariant (the failure predicate's value)
   is unchanged between them.  Only the first member of each class (the
   representative) is kept; the rest are skipped and returned as the
   third component.  This is the per-prefix segment proof of
   {!Analysis.Invariants} applied to the frontier: the skipped slice
   reproduces iff its representative does.

   Each surviving candidate also carries the stable key of its
   preemption site, the currency of the gain scheduler's adaptive
   site-decay feedback.

   [shared] persists the emission and class state across calls: the
   gain-ordered search re-extends executed parents as the database
   grows, and the shared table keeps re-extension from double-emitting
   (or double-counting) candidates already produced by an earlier
   pass. *)
let neutral_rank = 3

(* May this event move across the switch target's execution without
   changing the failure predicate?  Thread-local control (assigns,
   branches, gotos, returns, nops) always may: registers are private,
   and any load feeding a branch pins its location into the relevance
   closure, so the displaced branches' outcomes are fixed.  Shared
   accesses may only when they hit a global location outside the
   closure — heap accesses can shift object identity and lifetime
   events, and relevant globals feed the failure predicate.  Lock
   operations, spawns and every heap/lifetime instruction (alloc, free,
   list and refcount ops) anchor the segment. *)
let displaceable rel (e : Ksim.Machine.event) =
  e.spawned = []
  && e.lock_op = None
  && (match e.instr with
     | Ksim.Instr.Load _ | Ksim.Instr.Store _ | Ksim.Instr.Rmw _
     | Ksim.Instr.Assign _ | Ksim.Instr.Branch_if _ | Ksim.Instr.Goto _
     | Ksim.Instr.Return | Ksim.Instr.Nop ->
       true
     | _ -> false)
  && (match e.access with
     | None -> true
     | Some a ->
       (match a.addr with Ksim.Addr.Global _ -> true | _ -> false)
       && not (Analysis.Absdom.mem_addr rel a.addr))

let extensions ~db ~n_top ~prologue ?hints ?invariants ?shared
    (sched : Schedule.preemption) (outcome : Controller.outcome) :
    (string * int * string * Schedule.preemption) list * int * int =
  let final = outcome.final in
  let trace = Array.of_list outcome.trace in
  let start = extension_start sched trace in
  let parent_key = Schedule.preemption_key sched in
  let tids = Ksim.Machine.thread_ids final in
  let all_tids = List.filter (fun t -> not (List.mem t prologue)) tids in
  (* Per-thread facts, one pass over the trace (thread ids are dense).
     Thread [u] exists at trace position [i] when it is top-level or
     was spawned at or before [i]; it is certainly finished by [i] when
     the run left it done and its last event is at or before [i]. *)
  let n_threads = List.length tids in
  let base = Array.init n_threads (Ksim.Machine.thread_base final) in
  let finished = Array.init n_threads (Ksim.Machine.is_done final) in
  let last = Array.make n_threads (-1) in
  let spawned_at = Array.make n_threads max_int in
  Array.iteri
    (fun i (e : Ksim.Machine.event) ->
      last.(e.iid.Iid.tid) <- i;
      List.iter
        (fun (t, _) -> if spawned_at.(t) = max_int then spawned_at.(t) <- i)
        e.spawned)
    trace;
  let exists_by u i = u < n_top || spawned_at.(u) <= i in
  let done_by u i = finished.(u) && last.(u) <= i in
  let out = ref [] in
  let static_skips = ref 0 in
  let invariant_skips = ref 0 in
  (* Emission / class / skip state, possibly shared across re-extension
     passes.  Keys are namespaced by their first character: 'c' emitted
     candidates, 'k' invariant-class representatives, 's'/'i' already
     counted static/invariant skips. *)
  let tbl : (string, unit) Hashtbl.t =
    match shared with Some t -> t | None -> Hashtbl.create 64
  in
  let once key = if Hashtbl.mem tbl key then false else (Hashtbl.add tbl key (); true) in
  (* Table keys extend the parent's schedule key, which no other
     schedule's key extends (see {!Schedule.preemption_key}). *)
  let b = Buffer.create 128 in
  let key tag fields =
    Buffer.clear b;
    Buffer.add_string b tag;
    Buffer.add_string b parent_key;
    fields ();
    Buffer.contents b
  in
  (* Invariant segments: [seg] advances at every event that is not
     displaceable or that changes thread, so two anchors share a
     segment exactly when only displaceable same-thread instructions
     separate them. *)
  let seg = ref 0 in
  let prev_tid = ref (-1) in
  Array.iteri
    (fun i (e : Ksim.Machine.event) ->
      (match invariants with
      | Some rel ->
        if e.iid.Iid.tid <> !prev_tid || not (displaceable rel e) then
          incr seg;
        prev_tid := e.iid.Iid.tid
      | None -> ());
      if i >= start && not (List.mem e.iid.Iid.tid prologue) then
        match e.access with
        | None -> ()
        | Some a ->
          let site =
            { Ksim.Kcov.site_thread = base.(e.iid.Iid.tid);
              site_label = e.iid.Iid.label }
          in
          (* The known accesses to the location that conflict with this
             one by kind; a candidate needs one from another thread
             (some thread's, then the switch target's own). *)
          let conflicting =
            List.filter
              (fun (_, k) -> a.kind <> Ksim.Instr.Read || k <> Ksim.Instr.Read)
              (Ksim.Kcov.accessors db a.addr)
          in
          if
            List.exists
              (fun ((s : Ksim.Kcov.site), _) ->
                not (String.equal s.site_thread site.site_thread))
              conflicting
          then
            List.iter
              (fun u ->
                if
                  u <> e.iid.Iid.tid
                  && exists_by u i
                  && not (done_by u i)
                then
                  (* the target must itself touch the location *)
                  let targets =
                    List.filter
                      (fun ((s : Ksim.Kcov.site), _) ->
                        String.equal s.site_thread base.(u))
                      conflicting
                  in
                  if targets <> [] then (
                    let rank =
                      match hints with
                      | None -> neutral_rank
                      | Some h ->
                        List.fold_left
                          (fun acc ((s : Ksim.Kcov.site), _) ->
                            min acc
                              (Analysis.Summary.rank h
                                 ~a:
                                   ( site.Ksim.Kcov.site_thread,
                                     site.Ksim.Kcov.site_label )
                                 ~b:(s.site_thread, s.site_label)))
                          max_int targets
                    in
                    let occ_key tag =
                      key tag (fun () ->
                          Ksim.Key.iid b e.iid;
                          Ksim.Key.int b u)
                    in
                    if rank >= Analysis.Summary.guarded_rank then (
                      (* every target pair is proven Guarded *)
                      if once (occ_key "s") then incr static_skips)
                    else
                      let equiv_sig =
                        key "" (fun () ->
                            Ksim.Key.string b site.Ksim.Kcov.site_thread;
                            Ksim.Key.string b site.Ksim.Kcov.site_label;
                            Ksim.Key.addr b a.addr;
                            Ksim.Key.string b base.(u))
                      in
                      let class_new =
                        match invariants with
                        | None -> true
                        | Some _ ->
                          Hashtbl.mem tbl ("c" ^ equiv_sig)
                          || once
                               (key "k" (fun () ->
                                    Ksim.Key.int b !seg;
                                    Ksim.Key.int b rank;
                                    Ksim.Key.int b u))
                      in
                      if not class_new then (
                        (* a representative of the same invariant class
                           was already emitted: the displaced slice
                           cannot change the failure predicate *)
                        if once (occ_key "i") then incr invariant_skips)
                      else if
                        shared = None || once ("c" ^ equiv_sig)
                      then
                        let site_key =
                          site.Ksim.Kcov.site_thread ^ ":"
                          ^ site.Ksim.Kcov.site_label
                        in
                        out :=
                          ( equiv_sig,
                            rank,
                            site_key,
                            { sched with
                              Schedule.switches =
                                sched.Schedule.switches
                                @ [ { Schedule.after = e.iid; switch_to = u }
                                  ]
                            } )
                          :: !out))
              all_tids)
    trace;
  (List.rev !out, !static_skips, !invariant_skips)

(* Exact-duplicate detection: the machine is deterministic, so the
   schedule (order + switches) fully determines the run. *)
let signature (sched : Schedule.preemption) = Schedule.preemption_key sched

(* A pending candidate of the gain-ordered search: a serial execution
   (by index) or a one-preemption extension (by static rank, preemption
   depth and site key, the inputs of its gain estimate). *)
type item = {
  it_seq : int;  (* discovery order; the tie-breaker *)
  it_gain : [ `Serial of int | `Ext of int * int * string ];
  it_sig : string;  (* equivalence signature *)
  it_sched : Schedule.preemption;
}

(* [prune] disables the DPOR-style equivalence pruning when false — the
   ablation of DESIGN.md §5.2 measures how many more schedules the
   search runs without it. *)
let search ?(max_interleavings = default_max_interleavings) ?max_steps
    ?(prologue = []) ?(prune = true) ?static_hints ?invariants ?focus
    ?(order = (`Fixed : [ `Fixed | `Gain ])) ?resilience
    ?(on_run = fun _ _ -> ()) (vm : Hypervisor.Vm.t)
    ~(target : Ksim.Failure.t -> bool) () : result =
  Telemetry.Probe.span_begin ~cat:"lifs" "lifs.search";
  let group = Hypervisor.Vm.group vm in
  let n_top = List.length group.Ksim.Program.threads in
  let top = List.init n_top Fun.id in
  let interesting =
    List.filter (fun tid -> not (List.mem tid prologue)) top
  in
  let db = Ksim.Kcov.create () in
  let seen = Hashtbl.create 256 in
  let pruned = ref 0 in
  let static_pruned = ref 0 in
  let invariant_pruned = ref 0 in
  let reorderings = ref 0 in
  let executed = ref [] in  (* (sched, recording) newest first *)
  let found = ref None in
  let runs_before = Hypervisor.Vm.runs vm in
  let instrs_before = Hypervisor.Vm.executed_steps vm in
  let finish found interleavings =
    let stats =
      { schedules = Hypervisor.Vm.runs vm - runs_before;
        pruned = !pruned;
        static_pruned = !static_pruned;
        invariant_pruned = !invariant_pruned;
        gain_reorderings = !reorderings;
        interleavings;
        simulated = Hypervisor.Vm.simulated_seconds vm;
        executed_instrs = Hypervisor.Vm.executed_steps vm - instrs_before }
    in
    if Telemetry.Probe.installed () then (
      Telemetry.Probe.count ~by:stats.schedules "lifs.schedules";
      Analysis.Summary.count_pruned ~by:stats.pruned `Lifs_equivalent;
      Analysis.Summary.count_pruned ~by:stats.static_pruned `Lifs_static;
      Analysis.Summary.count_pruned ~by:stats.invariant_pruned
        `Lifs_invariant;
      Telemetry.Probe.count ~by:stats.gain_reorderings
        "lifs.gain_reorderings";
      if found <> None then Telemetry.Probe.count "lifs.reproduced";
      Telemetry.Probe.span_end
        ~args:
          [ ("schedules", string_of_int stats.schedules);
            ("interleavings", string_of_int interleavings);
            ("reproduced", if found = None then "false" else "true") ]
        ());
    let runs =
      match found with Some s -> [ (s.schedule, s.outcome) ] | None -> []
    in
    { found; stats; runs }
  in
  (* An executed run's trace and final machine, re-derived on a fresh
     boot of the VM's own engine and group: no VM run, no fault draw, no
     VM accounting. *)
  let replay recording =
    let o =
      Controller.replay
        (Ksim.Engine.boot (Hypervisor.Vm.engine vm) group)
        recording
    in
    Telemetry.Probe.count "lifs.replayed_runs";
    Telemetry.Probe.count ~by:o.steps "lifs.replayed_steps";
    o
  in
  (* One candidate, in order.  Admission: exact duplicates of an
     admitted schedule are skipped always, and extensions equivalent to
     an admitted one when [prune]; a skip is counted.  An admitted
     candidate runs, feeds the database, [on_run] and the run list, and
     the first run failing as reported is the reproduction.  Returns the
     run. *)
  let try_candidate equiv_sig sched =
    let key = signature sched in
    if Hashtbl.mem seen key || (prune && Hashtbl.mem seen equiv_sig) then (
      incr pruned;
      None)
    else (
      Hashtbl.add seen key ();
      if prune then Hashtbl.add seen equiv_sig ();
      let r =
        Executor.run_preemption ?max_steps ~prologue ?resilience vm sched
      in
      Executor.learn db r;
      on_run sched r.outcome;
      executed := (sched, Controller.record r.outcome) :: !executed;
      (match Executor.failed r with
      | Some f when target f -> found := Some (sched, r.outcome, f)
      | Some _ | None -> ());
      Some r)
  in
  let success sched (outcome : Controller.outcome) failure =
    let races =
      Race.of_trace outcome.trace
      @ Race.pending_of_failure ~db ~final:outcome.final outcome.trace
    in
    (* The pending scan can re-derive the faulting pair already found in
       the trace; keep one copy of each race. *)
    let races = Race.dedup races in
    (* Orders against the serial prologue are enforced by the workload
       itself (e.g. open() precedes the racing calls); they are not data
       races of the concurrent slice. *)
    let races =
      List.filter
        (fun (r : Race.t) ->
          (not (List.mem r.first.iid.Iid.tid prologue))
          && not (List.mem r.second.iid.Iid.tid prologue))
        races
    in
    { schedule = sched; outcome; failure; races }
  in
  (* Phase 0: serial executions. *)
  let serial_orders = permutations interesting in
  let rec run_phase
      (frontier : (string * int * string * Schedule.preemption) list) k =
    (* With static hints the frontier is visited Unguarded-first — the
       stable sort keeps the hint-free discovery order within each rank,
       so a hint table that ranks everything equally changes nothing. *)
    let frontier =
      match static_hints with
      | None -> frontier
      | Some _ ->
        List.stable_sort
          (fun (_, ra, _, _) (_, rb, _, _) -> compare ra rb)
          frontier
    in
    Telemetry.Probe.span_begin ~cat:"lifs" "lifs.phase";
    Telemetry.Probe.observe "lifs.frontier_size"
      (float_of_int (List.length frontier));
    (* The frontier in order, up to the reproduction: nothing past it
       is keyed or run. *)
    let rec walk = function
      | [] -> ()
      | (equiv_sig, _rank, _site, sched) :: rest ->
        ignore (try_candidate equiv_sig sched : Executor.run option);
        if !found = None then walk rest
    in
    walk frontier;
    if Telemetry.Probe.installed () then
      Telemetry.Probe.span_end
        ~args:
          [ ("interleavings", string_of_int k);
            ("frontier", string_of_int (List.length frontier));
            ("reproduced", if !found = None then "false" else "true") ]
        ();
    match !found with
    | Some (sched, outcome, f) ->
      Log.debug (fun m ->
          m "reproduced at interleaving count %d with %a: %a" k
            Schedule.pp_preemption sched Ksim.Failure.pp f);
      finish (Some (success sched outcome f)) k
    | None ->
      Log.debug (fun m ->
          m "interleaving count %d exhausted (%d schedules so far, %d pruned)"
            k
            (Hypervisor.Vm.runs vm - runs_before)
            !pruned);
      if k >= max_interleavings then finish None k
      else (
        (* Extend every executed run of interleaving count k by one more
           preemption, using the database as known so far; each parent
           is replayed just before its own extension. *)
        let parents =
          List.filter
            (fun ((s : Schedule.preemption), _) ->
              Schedule.interleaving_count s = k)
            (List.rev !executed)
        in
        let next =
          Telemetry.Probe.with_span ~cat:"lifs" "lifs.extend" (fun () ->
              List.concat_map
                (fun (s, recording) ->
                  let cands, skips, inv_skips =
                    extensions ~db ~n_top ~prologue ?hints:static_hints
                      ?invariants s (replay recording)
                  in
                  static_pruned := !static_pruned + skips;
                  invariant_pruned := !invariant_pruned + inv_skips;
                  cands)
                parents)
        in
        run_phase next (k + 1))
  in
  (* The gain-ordered search replaces the breadth-first phases with one
     best-first queue: pop the candidate with the highest expected
     information, run it, and push its extensions immediately (each
     parent is extended with the database as known right after its own
     run).  The first serial execution has infinite gain — it seeds the
     race database — while the remaining serials score below any
     extension, so for straight-line workloads the search jumps to
     promising preemptions after a single serial run instead of
     exhausting every start order first.  Each pop reads every run
     accounted before it. *)
  let run_gain () =
    let seqno = ref 0 in
    let site_runs : (string, int) Hashtbl.t = Hashtbl.create 32 in
    let shared : (string, unit) Hashtbl.t = Hashtbl.create 256 in
    let pending = ref [] in
    let push it_gain it_sig it_sched =
      let s = !seqno in
      incr seqno;
      pending := { it_seq = s; it_gain; it_sig; it_sched } :: !pending
    in
    (* Focus: the serial orders that start with the thread holding the
       reported crash site come first.  The failing thread must be the
       one interrupted mid-flight, so its extensions are where the
       minimal reproduction lives, and running its start orders first
       both completes the database for them sooner and hands out the
       lower (earlier tie-break) sequence numbers. *)
    let serial_orders =
      match focus with
      | None -> serial_orders
      | Some f ->
        let hit, miss =
          List.partition
            (function t :: _ -> t = f | [] -> false)
            serial_orders
        in
        hit @ miss
    in
    List.iteri
      (fun i o ->
        let s = Schedule.serial o in
        push (`Serial i) (Schedule.preemption_key s) s)
      serial_orders;
    (* Extend an executed run with the database as known now.  Called
       right after the run itself, and again on every executed run each
       time a serial completes: later serials reach code the first
       start order never executed (guarded branches), and the completed
       database reveals conflicts — and therefore candidates — the
       per-run pass could not see.  [shared] keeps the re-passes from
       re-emitting candidates already pushed.  [outcome] yields the run's
       outcome inside the extension span: the fresh one right after the
       run, a replay on re-extension. *)
    let extend (s : Schedule.preemption) outcome =
      let k = Schedule.interleaving_count s in
      if k < max_interleavings then (
        let cands, skips, inv_skips =
          Telemetry.Probe.with_span ~cat:"lifs" "lifs.extend" (fun () ->
              extensions ~db ~n_top ~prologue ?hints:static_hints
                ?invariants ~shared s (outcome ()))
        in
        static_pruned := !static_pruned + skips;
        invariant_pruned := !invariant_pruned + inv_skips;
        List.iter
          (fun (equiv_sig, rank, site, sched) ->
            push (`Ext (rank, k + 1, site)) equiv_sig sched)
          cands)
    in
    let gain it =
      match it.it_gain with
      | `Serial index -> Analysis.Gain.serial_gain ~index
      | `Ext (rank, depth, site) ->
        Analysis.Gain.extension_gain ~rank ~depth
          ~site_runs:
            (Option.value ~default:0 (Hashtbl.find_opt site_runs site))
    in
    let pop () =
      match !pending with
      | [] -> None
      | hd :: tl ->
        let it =
          fst
            (List.fold_left
               (fun (best, bg) it ->
                 let g = gain it in
                 if g > bg || (g = bg && it.it_seq < best.it_seq) then
                   (it, g)
                 else (best, bg))
               (hd, gain hd) tl)
        in
        pending := List.filter (fun x -> x.it_seq <> it.it_seq) !pending;
        if List.exists (fun x -> x.it_seq < it.it_seq) !pending then (
          incr reorderings;
          Telemetry.Probe.count "lifs.gain_reorderings");
        Some it
    in
    let rec loop () =
      match pop () with
      | None -> ()
      | Some it ->
        (match try_candidate it.it_sig it.it_sched with
        | None -> ()
        | Some (r : Executor.run) -> (
          (match it.it_gain with
          | `Ext (_, _, site) ->
            Hashtbl.replace site_runs site
              (1 + Option.value ~default:0 (Hashtbl.find_opt site_runs site))
          | `Serial _ -> ());
          if !found = None then (
            (match it.it_gain with
            | `Serial _ ->
              (* a completed serial grows the database; re-extend every
                 executed run against it, oldest first, ending with the
                 serial itself *)
              List.iter
                (fun (s, recording) -> extend s (fun () -> replay recording))
                (List.rev (List.tl !executed))
            | `Ext _ -> ());
            extend it.it_sched (fun () -> r.outcome))));
        if !found = None then loop ()
    in
    loop ();
    match !found with
    | Some (sched, outcome, f) ->
      Log.debug (fun m ->
          m "reproduced at interleaving count %d with %a: %a"
            (Schedule.interleaving_count sched)
            Schedule.pp_preemption sched Ksim.Failure.pp f);
      finish
        (Some (success sched outcome f))
        (Schedule.interleaving_count sched)
    | None -> finish None max_interleavings
  in
  match order with
  | `Gain -> run_gain ()
  | `Fixed ->
    run_phase
      (List.map
         (fun o ->
           ( Schedule.preemption_key (Schedule.serial o),
             neutral_rank,
             "",
             Schedule.serial o ))
         serial_orders)
      0
