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

   In the breadth-first phases an extension whose new preemption
   reorders no conflicting pair of a completed parent's trace is that
   trace in another order (one concurrent trace, in the sense of
   causality-based model checking): it is admitted like any candidate,
   but its run is derived from the parent's recording instead of
   executed, and counted as trace-equivalent.

   Every candidate, in either order, goes through one function: the
   admission check, the run on the search's VM (or the derivation), and
   the accounting.  A frontier is walked in order and the gain queue
   popped one candidate at a time, each step after the previous run was
   accounted, and the walk ends at the reproduction.

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
  trace_equivalent : int; (* admitted candidates derived from their
                             parent's run instead of run *)
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

type order = [ `Fixed | `Gain ]

let order_names = [ ("backward", `Fixed); ("gain", `Gain) ]

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
   existing switches must already have fired.  An iid names one
   dynamic instruction, so it occurs at most once in a trace and the
   scan stops at the last switch's trigger. *)
let extension_start (sched : Schedule.preemption)
    (trace : Ksim.Machine.event list) =
  match List.rev sched.switches with
  | [] -> 0
  | { after; _ } :: _ ->
    let rec find i = function
      | [] -> 0
      | (e : Ksim.Machine.event) :: rest ->
        if Iid.equal e.iid after then i + 1 else find (i + 1) rest
    in
    find 0 trace

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

(* A candidate schedule, with its equivalence signature, static rank and
   preemption site key; [derivable] is [Some (parent, at, u)] when the
   run needs no execution: it is the parent's recorded run with thread
   [u]'s steps after the first [at] moved up to step [at]
   ({!Controller.derive}). *)
type candidate = {
  equiv_sig : string;
  rank : int;
  site : string;
  sched : Schedule.preemption;
  derivable : (Controller.recording * int * int) option;
}

(* May this step overtake other threads' steps whenever its access
   conflicts with none of theirs?  Lock operations, spawns and heap
   lifetime events (alloc, free) may not: they change which threads can
   step, the run queue, or object identities, none of which an access
   conflict shows. *)
let movable (e : Ksim.Machine.event) =
  e.spawned = [] && e.lock_op = None
  &&
  match e.instr with
  | Ksim.Instr.Alloc _ | Ksim.Instr.Free _ | Ksim.Instr.Lock _
  | Ksim.Instr.Unlock _ | Ksim.Instr.Queue_work _ | Ksim.Instr.Call_rcu _
  | Ksim.Instr.Arm_timer _ | Ksim.Instr.Enable_irq _ ->
    false
  | _ -> true

(* One backward pass over a trace, down to index [start]: for every
   thread [u], the earliest index [i >= start] such that running all of
   [u]'s steps after [i] right after step [i] reorders no conflicting
   pair (two accesses to overlapping addresses, at least one a write)
   and moves no step that is not {!movable}; [start - 1] when every
   such index qualifies.  Walking back from the end, each address
   collects the threads whose later steps read or write it, as bit
   masks (and each object the threads accessing its fields, which a
   free of the whole object overlaps); a step of another thread that
   conflicts with them, or an unmovable step of [u] itself, fixes [u]'s
   threshold at its own index.  Both conditions only get harder as [i]
   falls, so the threshold is exact.  Thread ids must fit the masks:
   with more threads nothing is derivable. *)
let derive_thresholds ~start n_threads (trace : Ksim.Machine.event list) =
  let n = List.length trace in
  if n_threads >= Sys.int_size then Array.make n_threads n
  else
    let thr = Array.make n_threads (start - 1) in
    let open_ = ref ((1 lsl n_threads) - 1) in
    (* readers, writers *)
    let later : (Ksim.Addr.t, int * int) Hashtbl.t = Hashtbl.create 64 in
    let fields : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
    let masks tbl k = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl k) in
    let against w (r, wr) = if w then r lor wr else wr in
    let note tbl k w bit =
      let r, wr = masks tbl k in
      Hashtbl.replace tbl k (if w then (r, wr lor bit) else (r lor bit, wr))
    in
    let close mask i =
      for u = 0 to n_threads - 1 do
        if mask land (1 lsl u) <> 0 then thr.(u) <- i
      done;
      open_ := !open_ land lnot mask
    in
    (* positions past [start] only: a switch is never placed earlier *)
    let rec walk i = function
      | (e : Ksim.Machine.event) :: rest when i > start ->
        let bit = 1 lsl e.iid.Iid.tid in
        (match e.access with
        | Some a ->
          let w = Ksim.Access.is_write a in
          let hit =
            against w (masks later a.addr)
            lor
            match a.addr with
            | Ksim.Addr.Whole o -> against w (masks fields o)
            | Ksim.Addr.Field (o, _) | Ksim.Addr.Index (o, _) ->
              against w (masks later (Ksim.Addr.Whole o))
            | Ksim.Addr.Global _ -> 0
          in
          close (hit land !open_ land lnot bit) i
        | None -> ());
        if !open_ land bit <> 0 then
          if not (movable e) then close bit i
          else (
            match e.access with
            | Some a -> (
              let w = Ksim.Access.is_write a in
              note later a.addr w bit;
              match a.addr with
              | Ksim.Addr.Field (o, _) | Ksim.Addr.Index (o, _) ->
                note fields o w bit
              | Ksim.Addr.Global _ | Ksim.Addr.Whole _ -> ())
            | None -> ());
        walk (i - 1) rest
      | _ -> ()
    in
    walk (n - 1) (List.rev trace);
    thr

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

let extensions ~db ~n_top ~prologue ?hints ?invariants ?shared ?derive
    (sched : Schedule.preemption) (outcome : Controller.outcome) :
    candidate list * int * int =
  let final = outcome.final in
  let trace = outcome.trace in
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
  (* Spawns by a thread that already had a child, newest first, as
     (trace index, spawner): see [derivable]. *)
  let has_child = Array.make n_threads false in
  let sibling_spawns = ref [] in
  List.iteri
    (fun i (e : Ksim.Machine.event) ->
      let t = e.iid.Iid.tid in
      last.(t) <- i;
      if e.spawned <> [] then (
        if has_child.(t) then sibling_spawns := (i, t) :: !sibling_spawns;
        has_child.(t) <- true);
      List.iter
        (fun (t, _) -> if spawned_at.(t) = max_int then spawned_at.(t) <- i)
        e.spawned)
    trace;
  let exists_by u i = u < n_top || spawned_at.(u) <= i in
  let done_by u i = finished.(u) && last.(u) <= i in
  (* Trace-equivalent candidates, given the parent's recording [derive]
     of a completed run.  Switching to [u] after step [i] lets [u] run
     to the end: its moved steps take no lock, so it never blocks, and
     spawn nothing.  When they also reorder no conflicting pair, every
     thread reads what it read in the parent, and the other threads then
     run as they did there, in the order of the run queue with [u] moved
     to its front.  That order is the parent's, save for a spawn after
     [i]: the policy inserts a new thread after its spawner and the
     spawner's children that directly follow it, so in the parent a [u]
     standing between the spawner and an older child stops that scan
     early.  A spawn after [i] by a thread that already had a child
     therefore rules the candidate out, unless [u] is one of that
     thread's children (the scan passes it either way). *)
  let derivable =
    match derive with
    | Some parent when outcome.verdict = Controller.Completed ->
      let thr = derive_thresholds ~start n_threads trace in
      fun i u ->
        if
          finished.(u) && last.(u) > i && i >= thr.(u)
          && List.for_all
               (fun (k, p) ->
                 k <= i || Ksim.Machine.thread_parent final u = Some p)
               !sibling_spawns
        then Some (parent, i + 1, u)
        else None
    | Some _ | None -> fun _ _ -> None
  in
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
  List.iteri
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
                        out :=
                          { equiv_sig;
                            rank;
                            site =
                              site.Ksim.Kcov.site_thread ^ ":"
                              ^ site.Ksim.Kcov.site_label;
                            sched =
                              { sched with
                                Schedule.switches =
                                  sched.Schedule.switches
                                  @ [ { Schedule.after = e.iid;
                                        switch_to = u } ]
                              };
                            derivable = derivable i u }
                          :: !out))
              all_tids)
    trace;
  (List.rev !out, !static_skips, !invariant_skips)

(* A pending candidate of the gain-ordered search: a serial execution
   (by index) or a one-preemption extension (by static rank, preemption
   depth and site key, the inputs of its gain estimate). *)
type item = {
  it_seq : int;  (* discovery order; the tie-breaker *)
  it_gain : [ `Serial of int | `Ext of int * int * string ];
  it_cand : candidate;
}

(* [prune] disables the DPOR-style equivalence pruning when false — the
   ablation of DESIGN.md §5.2 measures how many more schedules the
   search runs without it. *)
let search ?(max_interleavings = default_max_interleavings) ?max_steps
    ?(prologue = []) ?(prune = true) ?static_hints ?invariants ?focus
    ?(order = (`Fixed : order)) ?resilience ?on_run (vm : Hypervisor.Vm.t)
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
  let trace_equivalent = ref 0 in
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
        trace_equivalent = !trace_equivalent;
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
      Telemetry.Probe.count ~by:stats.trace_equivalent "lifs.trace_equivalent";
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
  let boot () = Ksim.Engine.boot (Hypervisor.Vm.engine vm) group in
  let replay recording =
    let o = Controller.replay (boot ()) recording in
    Telemetry.Probe.count "lifs.replayed_runs";
    Telemetry.Probe.count ~by:o.steps "lifs.replayed_steps";
    o
  in
  (* One candidate, in order.  Admission: when [prune], a candidate
     equivalent to an admitted one is skipped and counted.  Exact
     duplicates need no check: a child is its parent's switches plus
     one, so two admitted parents never share a child, and gain
     re-extension emits each candidate once (the shared "c" keys of
     {!extensions}).  An admitted candidate runs, feeds the database,
     [on_run] and the run list, and the first run failing as reported
     is the reproduction.  Returns the run.

     A derivable candidate is admitted the same way but not run: its
     recording is rearranged from its parent's, it joins the run list
     (later phases extend it like any run) and is counted as
     trace-equivalent.  Its run completes, as its parent's did, and
     accesses what the parent's accessed, so it can neither reproduce
     nor teach the database anything.  [on_run], when given, sees it
     through an uncounted replay. *)
  let try_candidate (c : candidate) =
    if prune && Hashtbl.mem seen c.equiv_sig then (
      incr pruned;
      None)
    else (
      if prune then Hashtbl.add seen c.equiv_sig ();
      match c.derivable with
      | Some (parent, at, tid) ->
        let recording = Controller.derive parent ~at ~tid in
        incr trace_equivalent;
        Option.iter
          (fun f -> f c.sched (Controller.replay (boot ()) recording))
          on_run;
        executed := (c.sched, recording) :: !executed;
        None
      | None ->
        let r =
          Executor.run_preemption ?max_steps ~prologue ?resilience vm c.sched
        in
        Executor.learn db r;
        Option.iter (fun f -> f c.sched r.outcome) on_run;
        executed := (c.sched, Controller.record r.outcome) :: !executed;
        (match Executor.failed r with
        | Some f when target f -> found := Some (c.sched, r.outcome, f)
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
  let serial_candidate o =
    let sched = Schedule.serial o in
    { equiv_sig = Schedule.preemption_key sched; rank = neutral_rank;
      site = ""; sched; derivable = None }
  in
  let serial_orders = permutations interesting in
  (* Derivation serves the breadth-first phases only: the gain order
     extends each run right after it, so a derived run would be replayed
     at once.  An armed fault injector draws per run, so every candidate
     runs under it. *)
  let derive_on = Hypervisor.Vm.faults vm = None in
  let rec run_phase (frontier : candidate list) k =
    (* With static hints the frontier is visited Unguarded-first — the
       stable sort keeps the hint-free discovery order within each rank,
       so a hint table that ranks everything equally changes nothing. *)
    let frontier =
      match static_hints with
      | None -> frontier
      | Some _ ->
        List.stable_sort (fun a b -> compare a.rank b.rank) frontier
    in
    Telemetry.Probe.span_begin ~cat:"lifs" "lifs.phase";
    Telemetry.Probe.observe "lifs.frontier_size"
      (float_of_int (List.length frontier));
    (* The frontier in order, up to the reproduction: nothing past it
       is keyed or run. *)
    let rec walk = function
      | [] -> ()
      | c :: rest ->
        ignore (try_candidate c : Executor.run option);
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
                      ?invariants
                      ?derive:(if derive_on then Some recording else None)
                      s (replay recording)
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
    let push it_gain it_cand =
      let s = !seqno in
      incr seqno;
      pending := { it_seq = s; it_gain; it_cand } :: !pending
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
        push (`Serial i) (serial_candidate o))
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
        List.iter (fun c -> push (`Ext (c.rank, k + 1, c.site)) c) cands)
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
        if List.exists (fun x -> x.it_seq < it.it_seq) !pending then
          incr reorderings;
        Some it
    in
    let rec loop () =
      match pop () with
      | None -> ()
      | Some it ->
        (match try_candidate it.it_cand with
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
            extend it.it_cand.sched (fun () -> r.outcome))));
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
  | `Fixed -> run_phase (List.map serial_candidate serial_orders) 0
