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
   skips of Figure 5. *)

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
  elapsed : float;        (* host wall-clock seconds *)
  simulated : float;      (* modeled guest seconds (Vm cost model) *)
  executed_instrs : int;  (* instructions executed (restored prefixes
                             via the snapshot cache excluded) *)
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
  db : Ksim.Kcov.db;
  (* Every executed run, for baselines that need failing/passing traces. *)
  runs : (Schedule.preemption * Controller.outcome) list;
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

let site_of_event final (e : Ksim.Machine.event) : Ksim.Kcov.site =
  { Ksim.Kcov.site_thread = Ksim.Machine.thread_base final e.iid.Iid.tid;
    site_label = e.iid.Iid.label }

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

(* Is thread [u] certainly finished by trace position [i] of this run? *)
let done_by final (trace : Ksim.Machine.event array) u i =
  Ksim.Machine.has_thread final u
  && Ksim.Machine.is_done final u
  &&
  let last = ref (-1) in
  Array.iteri
    (fun j (e : Ksim.Machine.event) -> if e.iid.Iid.tid = u then last := j)
    trace;
  !last <= i

(* Does thread [u] exist at trace position [i]? Top-level threads always
   do; spawned threads exist once their spawn event has occurred. *)
let exists_by n_top (trace : Ksim.Machine.event array) u i =
  u < n_top
  ||
  let spawned = ref false in
  Array.iteri
    (fun j (e : Ksim.Machine.event) ->
      if j <= i && List.exists (fun (t, _) -> t = u) e.spawned then
        spawned := true)
    trace;
  !spawned

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

   When a failure-relevance closure is supplied ([invariants], from the
   error-invariant engine's abstract domain), candidates are grouped
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
  let all_tids =
    List.filter
      (fun t -> not (List.mem t prologue))
      (Ksim.Machine.thread_ids final)
  in
  let out = ref [] in
  let static_skips = ref 0 in
  let invariant_skips = ref 0 in
  (* Emission / class / skip state, possibly shared across re-extension
     passes.  Keys are namespaced: "c|sig" emitted candidates, "k|..."
     invariant-class representatives, "s|..." already-counted skips. *)
  let tbl : (string, unit) Hashtbl.t =
    match shared with Some t -> t | None -> Hashtbl.create 64
  in
  let once key = if Hashtbl.mem tbl key then false else (Hashtbl.add tbl key (); true) in
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
          let site = site_of_event final e in
          if Ksim.Kcov.has_conflict db ~site ~addr:a.addr ~kind:a.kind then
            List.iter
              (fun u ->
                if
                  u <> e.iid.Iid.tid
                  && exists_by n_top trace u i
                  && not (done_by final trace u i)
                then
                  (* the target must itself touch the location *)
                  let targets =
                    List.filter
                      (fun ((s : Ksim.Kcov.site), k) ->
                        String.equal s.site_thread
                          (Ksim.Machine.thread_base final u)
                        && (a.kind <> Ksim.Instr.Read
                           || k <> Ksim.Instr.Read))
                      (Ksim.Kcov.accessors db a.addr)
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
                      Fmt.str "%s|%s|%a->%d" tag parent_key Iid.pp_full
                        e.iid u
                    in
                    if rank >= Analysis.Summary.guarded_rank then (
                      (* every target pair is proven Guarded *)
                      if once (occ_key "s") then incr static_skips)
                    else
                      let equiv_sig =
                        Fmt.str "%s|%s:%s@%a->%s" parent_key
                          site.Ksim.Kcov.site_thread site.Ksim.Kcov.site_label
                          Ksim.Addr.pp a.addr
                          (Ksim.Machine.thread_base final u)
                      in
                      let class_new =
                        match invariants with
                        | None -> true
                        | Some _ ->
                          Hashtbl.mem tbl ("c|" ^ equiv_sig)
                          || once (Fmt.str "k|%s|%d|%d|%d" parent_key !seg
                                     rank u)
                      in
                      if not class_new then (
                        (* a representative of the same invariant class
                           was already emitted: the displaced slice
                           cannot change the failure predicate *)
                        if once (occ_key "i") then incr invariant_skips)
                      else if
                        shared = None || once ("c|" ^ equiv_sig)
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
    ?(order = (`Fixed : [ `Fixed | `Gain ])) ?pool ?snapshots ?resilience
    (vm : Hypervisor.Vm.t) ~(target : Ksim.Failure.t -> bool) () : result =
  Telemetry.Probe.span_begin ~cat:"lifs" "lifs.search";
  let t0 = Unix.gettimeofday () in
  let group = Hypervisor.Vm.group vm in
  (* Frontier slices fan out across the pool only under [`Fixed] order
     without faults: the gain scheduler picks each run from the
     outcomes before it, and fault injection couples runs through the
     shared fault stream — both stay sequential. *)
  let par_pool =
    match pool with
    | Some p
      when Hypervisor.Pool.jobs p > 1 && Hypervisor.Vm.faults vm = None ->
      Some p
    | _ -> None
  in
  let n_top = List.length group.Ksim.Program.threads in
  let top = List.init n_top Fun.id in
  let interesting =
    List.filter (fun tid -> not (List.mem tid prologue)) top
  in
  let db = ref Ksim.Kcov.empty in
  let seen = Hashtbl.create 256 in
  let pruned = ref 0 in
  let static_pruned = ref 0 in
  let invariant_pruned = ref 0 in
  let reorderings = ref 0 in
  let executed = ref [] in  (* (sched, outcome) newest first *)
  let runs_before = Hypervisor.Vm.runs vm in
  let instrs_before = Hypervisor.Vm.executed_steps vm in
  let finish found interleavings =
    let elapsed = Unix.gettimeofday () -. t0 in
    let stats =
      { schedules = Hypervisor.Vm.runs vm - runs_before;
        pruned = !pruned;
        static_pruned = !static_pruned;
        invariant_pruned = !invariant_pruned;
        gain_reorderings = !reorderings;
        interleavings;
        elapsed;
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
    { found; stats; db = !db; runs = List.rev !executed }
  in
  let run_sched (sched : Schedule.preemption) =
    let r =
      Executor.run_preemption ?max_steps ~prologue ?snapshots ?resilience vm
        sched
    in
    db := Executor.learn !db r;
    executed := (sched, r.outcome) :: !executed;
    r
  in
  let success sched (outcome : Controller.outcome) failure =
    let races =
      Race.of_trace outcome.trace
      @ Race.pending_of_failure ~db:!db ~final:outcome.final outcome.trace
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
    let failed = ref None in
    (match par_pool with
    | None ->
      List.iter
        (fun (equiv_sig, _rank, _site, sched) ->
          if !failed = None then (
            let key = signature sched in
            if
              Hashtbl.mem seen key
              || (prune && Hashtbl.mem seen equiv_sig)
            then incr pruned
            else (
              Hashtbl.add seen key ();
              if prune then Hashtbl.add seen equiv_sig ();
              let r = run_sched sched in
              match Executor.failed r with
              | Some f when target f -> failed := Some (sched, r.outcome, f)
              | Some _ | None -> ())))
        frontier
    | Some p ->
      (* Parallel frontier slice.  The dedup bookkeeping depends only
         on schedule keys, never on outcomes, so a sequential pre-pass
         decides exactly which candidates a sequential walk would run.
         The pool then executes them in bounded waves on one fresh
         guest each (sharing the snapshot cache), and the merge walks
         results in frontier order: absorb accounting, replay
         telemetry, learn the database, stop at the first run whose
         failure matches the target.  Wave results past that point are
         speculative — a sequential walk would never have executed
         them — so they are discarded wholesale (no stats, no
         telemetry, no learning) and only counted. *)
      let decisions =
        Array.of_list
          (List.map
             (fun (equiv_sig, _rank, _site, sched) ->
               let key = signature sched in
               if
                 Hashtbl.mem seen key
                 || (prune && Hashtbl.mem seen equiv_sig)
               then `Skip
               else (
                 Hashtbl.add seen key ();
                 if prune then Hashtbl.add seen equiv_sig ();
                 `Run sched))
             frontier)
      in
      let runnables =
        let acc = ref [] in
        Array.iteri
          (fun pos d ->
            match d with
            | `Run sched -> acc := (pos, sched) :: !acc
            | `Skip -> ())
          decisions;
        Array.of_list (List.rev !acc)
      in
      let telemetry = Telemetry.Probe.installed () in
      let wave = max 1 (Hypervisor.Pool.jobs p * 4) in
      let n = Array.length runnables in
      let fail_pos = ref max_int in
      let speculative = ref 0 in
      let start = ref 0 in
      while !failed = None && !start < n do
        let len = min wave (n - !start) in
        let base = !start in
        let results =
          Hypervisor.Pool.run p
            (fun i ->
              let _pos, sched = runnables.(base + i) in
              let wvm =
                Hypervisor.Vm.create ~engine:(Hypervisor.Vm.engine vm) group
              in
              let exec () =
                Executor.run_preemption ?max_steps ~prologue ?snapshots wvm
                  sched
              in
              if telemetry then (
                let rc = Telemetry.Recorder.create () in
                let r =
                  Telemetry.Probe.with_sink (Telemetry.Recorder.sink rc) exec
                in
                (r, wvm, Some rc))
              else (exec (), wvm, None))
            len
        in
        Array.iteri
          (fun i (r, wvm, rc) ->
            if !failed = None then (
              let pos, sched = runnables.(base + i) in
              Hypervisor.Vm.absorb vm wvm;
              (match (rc, Telemetry.Probe.current_sink ()) with
              | Some rc, Some sink -> Telemetry.Recorder.replay rc sink
              | _ -> ());
              db := Executor.learn !db r;
              executed := (sched, r.outcome) :: !executed;
              match Executor.failed r with
              | Some f when target f ->
                failed := Some (sched, r.outcome, f);
                fail_pos := pos
              | Some _ | None -> ())
            else incr speculative)
          results;
        start := !start + len
      done;
      (* The skips a sequential walk would have counted: those before
         the failing candidate, or the whole frontier when it
         survives. *)
      Array.iteri
        (fun pos d -> if pos < !fail_pos && d = `Skip then incr pruned)
        decisions;
      if !speculative > 0 then (
        Telemetry.Probe.count ~by:!speculative "lifs.speculative_runs";
        Log.debug (fun m ->
            m "discarded %d speculative wave runs past the reproduction"
              !speculative)));
    if Telemetry.Probe.installed () then
      Telemetry.Probe.span_end
        ~args:
          [ ("interleavings", string_of_int k);
            ("frontier", string_of_int (List.length frontier));
            ("reproduced", if !failed = None then "false" else "true") ]
        ();
    match !failed with
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
           preemption, using the database as known so far. *)
        let parents =
          List.filter
            (fun ((s : Schedule.preemption), _) ->
              Schedule.interleaving_count s = k)
            (List.rev !executed)
        in
        let next =
          Telemetry.Probe.with_span ~cat:"lifs" "lifs.extend" (fun () ->
              List.concat_map
                (fun (s, o) ->
                  let cands, skips, inv_skips =
                    extensions ~db:!db ~n_top ~prologue ?hints:static_hints
                      ?invariants s o
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
     exhausting every start order first. *)
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
       re-emitting candidates already pushed. *)
    let extend (s : Schedule.preemption) (o : Controller.outcome) =
      let k = Schedule.interleaving_count s in
      if k < max_interleavings then (
        let cands, skips, inv_skips =
          Telemetry.Probe.with_span ~cat:"lifs" "lifs.extend" (fun () ->
              extensions ~db:!db ~n_top ~prologue ?hints:static_hints
                ?invariants ~shared s o)
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
    let found = ref None in
    while Option.is_none !found && !pending <> [] do
      let it =
        match !pending with
        | [] -> assert false
        | hd :: tl ->
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
      let key = signature it.it_sched in
      if Hashtbl.mem seen key || (prune && Hashtbl.mem seen it.it_sig)
      then incr pruned
      else (
        Hashtbl.add seen key ();
        if prune then Hashtbl.add seen it.it_sig ();
        let r = run_sched it.it_sched in
        (match it.it_gain with
        | `Ext (_, _, site) ->
          Hashtbl.replace site_runs site
            (1 + Option.value ~default:0 (Hashtbl.find_opt site_runs site))
        | `Serial _ -> ());
        match Executor.failed r with
        | Some f when target f ->
          found := Some (it.it_sched, r.outcome, f)
        | Some _ | None -> (
          match it.it_gain with
          | `Serial _ ->
            (* a completed serial grows the database; re-extend every
               executed run against it, oldest first *)
            List.iter (fun (s, o) -> extend s o) (List.rev !executed)
          | `Ext _ -> extend it.it_sched r.outcome))
    done;
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
