(* Reference-vs-compiled differential oracle: the engine parity harness.

   The compiled arena/undo-log interpreter must be observably
   indistinguishable from the persistent reference semantics.  The
   lockstep driver boots BOTH engines on the same group, drives them
   with an identical schedule, and after every step asserts: identical
   runnable sets, identical events (iid, instruction, access, lock op,
   spawn edges, context), identical failure state and identical
   [Machine.fingerprint].  On each engine it also checks the queries
   the schedulers use against the ones they replace: [can_step] is
   membership in [runnable], [first_runnable] its head, and the
   pc-level [next_pc]/[occurrences_at] agree with
   [next_label]/[occurrences].  At the end of a run the leak-checked
   failures must agree (failure iff-equivalence), the race sets
   independently recomputed from each engine's trace must be equal, and
   the kcov coverage extracted from each trace must agree.

   The driver runs over 250+ generated programs (Oracle_gen's
   engine-parity corpus: nested critical sections, use-after-free and
   double-free windows, heap-value failure predicates, kthread spawn
   edges), the full modeled bug corpus, and fault-injected diagnoses
   with identical seeded fault streams on both engines.

   Property tests additionally pin the compiled engine's undo log
   (stepping a stale handle whose arena tip moved on == fresh
   re-execution) and its
   static instrumentation tables (flag-bitset and watchpoint parity
   against dynamic events under randomly placed breakpoints and
   watchpoints).

   QCHECK_SEED fixes the generator seed; QCHECK_LONG multiplies the
   iteration count (both read by qcheck-alcotest).  Divergences are
   appended to engine_counterexamples.txt — with the schedule, the
   divergence step and the reason, i.e. a replayable counterexample —
   for CI artifact upload. *)

module Engine = Ksim.Engine
module Machine = Ksim.Machine
module Iid = Ksim.Access.Iid
module Race = Aitia.Race
module Kcov = Ksim.Kcov
module Smap = Map.Make (String)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- counterexample dump -------------------------------------------------- *)

let counterexample_file = "engine_counterexamples.txt"

let dump_counterexample ~schedule ~picked ~step ~reason group =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 counterexample_file
  in
  output_string oc
    (Fmt.str
       "=== engine counterexample: %s@.schedule=%s picks=[%s] step=%d@.%s@."
       reason schedule
       (String.concat ";" (List.rev_map string_of_int picked))
       step
       (Oracle_gen.render_group group));
  close_out oc

(* --- schedules -------------------------------------------------------------

   A schedule factory returns a fresh pick function per run (the seeded
   ones carry mutable PRNG state).  [pick step runnable] chooses the
   thread to step next; both engines are driven by the SAME pick, so any
   divergence is the engine's, never the scheduler's. *)

let schedules =
  [ ( "round-robin",
      fun () step tids -> List.nth tids (step mod List.length tids) );
    ("first-runnable", fun () _ tids -> List.hd tids);
    ( "seeded-17",
      fun () ->
        let st = Random.State.make [| 17 |] in
        fun _ tids -> List.nth tids (Random.State.int st (List.length tids)) );
    ( "seeded-23",
      fun () ->
        let st = Random.State.make [| 23 |] in
        fun _ tids -> List.nth tids (Random.State.int st (List.length tids)) )
  ]

(* --- the lockstep driver --------------------------------------------------- *)

type run = {
  trace_ref : Machine.event list;   (* reference-engine trace, in order *)
  trace_cmp : Machine.event list;   (* compiled-engine trace, in order *)
  final_ref : Machine.t;
  final_cmp : Machine.t;
  failure : string option;          (* agreed leak-checked failure *)
  steps : int;
}

type divergence = { at_step : int; reason : string; picked : int list }

let failure_str m = Option.map Ksim.Failure.to_string (Machine.failed m)

(* Events are compared field by field so a divergence names what broke;
   [instr]/[src] are static program data and rendered for comparison. *)
let event_mismatch (a : Machine.event) (b : Machine.event) =
  if not (Iid.equal a.iid b.iid) then Some "event iid"
  else if a.access <> b.access then Some "event access"
  else if a.spawned <> b.spawned then Some "event spawn edges"
  else if a.lock_op <> b.lock_op then Some "event lock op"
  else if a.context <> b.context then Some "event context"
  else if not (String.equal a.thread_name b.thread_name) then
    Some "event thread name"
  else if
    not (String.equal (Ksim.Instr.to_string a.instr)
           (Ksim.Instr.to_string b.instr))
  then Some "event instruction"
  else None

(* A step may also abort with [Model_error] (malformed model, e.g. a
   generated program dereferencing an integer it stored into a pointer
   global) — the engines must agree on that too, message and all. *)
type stepped =
  | S_ok of Machine.t * Machine.event
  | S_err of Machine.step_error
  | S_model of string

let try_step m tid =
  match Engine.step m tid with
  | Ok (m', ev) -> S_ok (m', ev)
  | Error e -> S_err e
  | exception Machine.Model_error msg -> S_model msg

(* The per-thread and pc-level queries on one engine's machine, against
   the list and label queries they stand for.  [last] is the event just
   stepped: its label's count is read both ways too.  Thread ids one
   past either end must not step. *)
let query_mismatch m runnable (last : Machine.event option) =
  let tids = Machine.thread_ids m in
  let outside = [ -1; List.length tids ] in
  let label_agrees tid label =
    match Machine.pc_of_label m tid label with
    | Some pc -> Machine.occurrences_at m tid pc = Machine.occurrences m tid label
    | None -> false
  in
  let next_agrees tid =
    let pc = Machine.next_pc m tid in
    match Machine.next_label m tid with
    | None -> pc = -1
    | Some label ->
      Machine.pc_of_label m tid label = Some pc && label_agrees tid label
  in
  if
    List.exists
      (fun t -> Machine.can_step m t <> List.mem t runnable)
      (outside @ tids)
  then Some "can_step disagrees with runnable"
  else if
    Machine.first_runnable m
    <> match runnable with [] -> None | t :: _ -> Some t
  then Some "first_runnable is not the head of runnable"
  else if not (List.for_all next_agrees tids) then
    Some "next_pc/occurrences_at disagree with next_label/occurrences"
  else if
    match last with
    | Some e -> not (label_agrees e.iid.Iid.tid e.iid.Iid.label)
    | None -> false
  then Some "occurrences_at disagrees with occurrences for the last step"
  else if List.exists (fun t -> Machine.pc_of_label m t "\000" <> None) tids
  then Some "pc_of_label resolves a label no program has"
  else None

(* Drive both engines under one schedule, checking parity after every
   step.  Every generated program terminates under every schedule; the
   step cap only guards corpus noise loops against scheduler livelock
   and counts as a clean (partial) end. *)
let lockstep ?(max_steps = 6_000) ~pick group : (run, divergence) result =
  let rec go mr mc trace_r trace_c picked steps =
    let err reason = Error { at_step = steps; reason; picked } in
    let last = function [] -> None | e :: _ -> Some e in
    if not (String.equal (Machine.fingerprint mr) (Machine.fingerprint mc))
    then err "fingerprints diverge"
    else if failure_str mr <> failure_str mc then err "failures diverge"
    else
      let runnable = Machine.runnable mr in
      if runnable <> Machine.runnable mc then err "runnable sets diverge"
      else
        match
          ( query_mismatch mr runnable (last trace_r),
            query_mismatch mc runnable (last trace_c) )
        with
        | Some what, _ -> err ("reference engine: " ^ what)
        | None, Some what -> err ("compiled engine: " ^ what)
        | None, None ->
        let finish mr mc =
          let mr = Machine.check_leaks mr and mc = Machine.check_leaks mc in
          let fr = failure_str mr and fc = failure_str mc in
          if fr <> fc then err "leak-checked failures diverge"
          else if
            not
              (String.equal (Machine.fingerprint mr) (Machine.fingerprint mc))
          then err "post-leak-check fingerprints diverge"
          else
            Ok
              { trace_ref = List.rev trace_r;
                trace_cmp = List.rev trace_c;
                final_ref = mr;
                final_cmp = mc;
                failure = fr;
                steps }
        in
        match runnable with
        | [] -> finish mr mc
        | _ when steps >= max_steps -> finish mr mc
        | tids -> (
          let tid = pick steps tids in
          let picked = tid :: picked in
          match (try_step mr tid, try_step mc tid) with
          | S_ok (mr', er), S_ok (mc', ec) -> (
            match event_mismatch er ec with
            | Some what -> err (what ^ " diverges")
            | None ->
              go mr' mc' (er :: trace_r) (ec :: trace_c) picked (steps + 1))
          | S_model a, S_model b when String.equal a b ->
            (* Both engines reject the malformed model identically: a
               terminal agreement.  The pre-step machines were already
               fingerprint-equal; the aborted step's state is unusable
               by contract, so the run ends here. *)
            Ok
              { trace_ref = List.rev trace_r;
                trace_cmp = List.rev trace_c;
                final_ref = mr;
                final_cmp = mc;
                failure = Some ("model-error: " ^ a);
                steps }
          | S_err a, S_err b when a = b ->
            err "both engines refuse a runnable thread"
          | _ -> err "step results diverge (Ok vs Error vs Model_error)")
  in
  go
    (Engine.boot Engine.Reference group)
    (Engine.boot Engine.Compiled group)
    [] [] [] 0

(* Post-run agreement derived from the traces rather than the machines:
   the race set and kcov coverage feed diagnosis, so both engines' event
   streams must drive them identically. *)
let race_keys trace =
  List.sort_uniq String.compare (List.map Race.key (Race.of_trace trace))

let coverage_of final trace =
  Kcov.coverage [ trace ] ~thread_base:(Machine.thread_base final)

let run_agrees ~schedule group (r : run) =
  let dump reason =
    dump_counterexample ~schedule ~picked:[] ~step:r.steps ~reason group;
    false
  in
  if race_keys r.trace_ref <> race_keys r.trace_cmp then
    dump "race sets diverge on identical schedules"
  else if
    not
      (Smap.equal Int.equal
         (coverage_of r.final_ref r.trace_ref)
         (coverage_of r.final_cmp r.trace_cmp))
  then dump "kcov coverage diverges on identical schedules"
  else true

(* One group under one named schedule: lockstep, then trace agreement. *)
let check_group ~schedule mk group =
  match lockstep ~pick:(mk ()) group with
  | Error d ->
    dump_counterexample ~schedule ~picked:d.picked ~step:d.at_step
      ~reason:d.reason group;
    None
  | Ok r -> if run_agrees ~schedule group r then Some r else None

(* --- generated programs ---------------------------------------------------- *)

let checked = ref 0
let failing_runs = ref 0

let prop_lockstep =
  QCheck.Test.make ~count:250 ~long_factor:4
    ~name:"reference and compiled engines agree in lockstep"
    Oracle_gen.arb_engine_group
    (fun group ->
      incr checked;
      List.for_all
        (fun (schedule, mk) ->
          match check_group ~schedule mk group with
          | None -> false
          | Some r ->
            (match r.failure with
            | Some f when not (String.starts_with ~prefix:"model-error" f) ->
              incr failing_runs
            | _ -> ());
            true)
        schedules)

let test_lockstep_coverage () =
  (* The acceptance bar: the differential comparison really ran on at
     least 250 generated programs, and the failing direction (failure
     iff-equivalence with a manifested failure) was exercised. *)
  checkb
    (Fmt.str "checked %d generated programs >= 250" !checked)
    true (!checked >= 250);
  checkb "some lockstep runs actually failed" true (!failing_runs > 0)

(* --- snapshot / restore: undo-log restore == fresh re-execution ------------ *)

(* Compiled-engine snapshots are undo-log marks into a shared arena.
   Record a full run's schedule and per-step fingerprints, then snapshot
   at a random cut, step PAST the snapshot (so a restore must rewind the
   arena through the undo log), restore, and re-drive the suffix: every
   suffix fingerprint must equal the fresh run's at the same step. *)
let arb_restore =
  QCheck.make
    ~print:(fun (g, cut, _) ->
      Fmt.str "cut=%d@.%s" cut (Oracle_gen.render_group g))
    QCheck.Gen.(
      triple Oracle_gen.gen_engine_group (int_range 0 40) (int_range 0 1000))

let prop_restore_equals_fresh =
  QCheck.Test.make ~count:120 ~long_factor:4
    ~name:"compiled engine: undo-log restore == fresh re-execution"
    arb_restore
    (fun (group, cut_raw, seed) ->
      let st = Random.State.make [| seed |] in
      let pick _ tids =
        List.nth tids (Random.State.int st (List.length tids))
      in
      (* Fresh run: record the schedule and the fingerprint after every
         step. *)
      let m0 = Engine.boot Engine.Compiled group in
      let rec record m tids fps steps =
        match Machine.runnable m with
        | [] -> (List.rev tids, List.rev fps)
        | _ when steps >= 2_000 -> (List.rev tids, List.rev fps)
        | runnable -> (
          let tid = pick steps runnable in
          match Engine.step m tid with
          | Error _ | (exception Machine.Model_error _) ->
            (List.rev tids, List.rev fps)
          | Ok (m', _) ->
            record m' (tid :: tids) (Machine.fingerprint m' :: fps)
              (steps + 1))
      in
      let sched, fps = record m0 [] [] 0 in
      let n = List.length sched in
      if n = 0 then QCheck.assume_fail ()
      else begin
        let cut = cut_raw mod n in
        (* Replay the prefix, snapshot, dirty the arena past the cut,
           then restore and re-drive the suffix. *)
        let m = ref (Engine.boot Engine.Compiled group) in
        List.iteri
          (fun i tid ->
            if i < cut then
              match Engine.step !m tid with
              | Ok (m', _) -> m := m'
              | Error _ -> Alcotest.fail "prefix replay refused a step")
          sched;
        let snap = !m in
        (* Step past the snapshot so the restore is a genuine rewind,
           not the arena tip: stepping the stale handle must clone the
           arena and undo back to its mark. *)
        let dirty = ref snap in
        List.iteri
          (fun i tid ->
            if i >= cut then
              match Engine.step !dirty tid with
              | Ok (m', _) -> dirty := m'
              | Error _ -> ())
          sched;
        (* Restore and re-drive: every suffix step must reproduce the
           fresh run's fingerprint exactly. *)
        let r = ref snap in
        let ok = ref true in
        List.iteri
          (fun i tid ->
            if i >= cut && !ok then
              match Engine.step !r tid with
              | Ok (m', _) ->
                r := m';
                if
                  not
                    (String.equal (Machine.fingerprint m') (List.nth fps i))
                then ok := false
              | Error _ -> ok := false)
          sched;
        if not !ok then
          dump_counterexample ~schedule:(Fmt.str "seeded-%d" seed)
            ~picked:(List.rev sched) ~step:cut
            ~reason:"restore+suffix diverges from fresh execution" group;
        !ok
      end)

(* --- detach: the same state without the undo log ----------------------------- *)

(* Detach a compiled machine at a random point of a run: the detached
   machine must be indistinguishable from the original (fingerprint,
   runnable set, and every event of the rest of the run under the same
   picks), and detaching must leave the original usable.  On the
   reference engine detach is the identity. *)
let prop_detach_equals_original =
  QCheck.Test.make ~count:120 ~long_factor:4
    ~name:"compiled engine: detach preserves state and future steps"
    arb_restore
    (fun (group, cut, seed) ->
      let st = Random.State.make [| seed |] in
      let pick tids = List.nth tids (Random.State.int st (List.length tids)) in
      let r0 = Engine.boot Engine.Reference group in
      if Machine.detach r0 != r0 then
        Alcotest.fail "detach changed a reference-engine machine";
      let rec prefix m k =
        match Machine.runnable m with
        | [] -> m
        | runnable when k > 0 -> (
          match try_step m (pick runnable) with
          | S_ok (m', _) -> prefix m' (k - 1)
          | S_err _ | S_model _ -> m)
        | _ -> m
      in
      let m = prefix (Engine.boot Engine.Compiled group) cut in
      let fp = Machine.fingerprint m and runnable = Machine.runnable m in
      let d = Machine.detach m in
      (* Run the detached machine to the end first, recording each step;
         the original must then be exactly where it was and replay the
         same steps. *)
      let rec drive m steps acc =
        match Machine.runnable m with
        | [] -> List.rev acc
        | _ when steps >= 2_000 -> List.rev acc
        | tids -> (
          let tid = pick tids in
          match try_step m tid with
          | S_ok (m', ev) ->
            drive m' (steps + 1)
              ((tid, `Ev ev, Machine.fingerprint m') :: acc)
          | S_err e -> List.rev ((tid, `Err e, "") :: acc)
          | S_model msg -> List.rev ((tid, `Model msg, "") :: acc))
      in
      let ok =
        String.equal (Machine.fingerprint d) fp
        && Machine.runnable d = runnable
        &&
        let steps = drive d 0 [] in
        String.equal (Machine.fingerprint m) fp
        &&
        let rec replay m = function
          | [] -> true
          | (tid, expected, efp) :: rest -> (
            match (try_step m tid, expected) with
            | S_ok (m', ev), `Ev e ->
              event_mismatch ev e = None
              && String.equal (Machine.fingerprint m') efp
              && replay m' rest
            | S_err a, `Err b -> a = b
            | S_model a, `Model b -> String.equal a b
            | _, _ -> false)
        in
        replay m steps
      in
      if not ok then
        dump_counterexample ~schedule:(Fmt.str "detach-seeded-%d" seed)
          ~picked:[] ~step:cut
          ~reason:"detached machine diverges from the original" group;
      ok)

(* --- static instrumentation: bitsets and watchpoints ------------------------ *)

(* Map a dynamic event back to its static pc: thread base name ->
   program, label -> position. *)
let program_of group base =
  match
    List.find_opt
      (fun (t : Ksim.Program.thread_spec) -> String.equal t.spec_name base)
      group.Ksim.Program.threads
  with
  | Some t -> t.program
  | None -> Ksim.Program.find_entry group base

let arb_bitset =
  QCheck.make
    ~print:(fun (g, _) -> Oracle_gen.render_group g)
    QCheck.Gen.(pair Oracle_gen.gen_engine_group (int_range 0 1000))

let prop_bitset_parity =
  QCheck.Test.make ~count:120 ~long_factor:4
    ~name:"static flag/watchpoint tables match dynamic events"
    arb_bitset
    (fun (group, seed) ->
      let st = Random.State.make [| seed |] in
      let pick _ tids =
        List.nth tids (Random.State.int st (List.length tids))
      in
      (* Randomly placed watchpoints (over declared globals) and
         breakpoints (over static labels of every program). *)
      let gnames = List.map fst group.Ksim.Program.globals in
      let watched = List.filter (fun _ -> Random.State.bool st) gnames in
      let all_labels =
        List.concat_map
          (fun (t : Ksim.Program.thread_spec) ->
            Ksim.Program.labels t.program)
          group.Ksim.Program.threads
        @ List.concat_map
            (fun (_, p) -> Ksim.Program.labels p)
            group.Ksim.Program.entries
      in
      let breaks =
        List.filter (fun _ -> Random.State.int st 4 = 0) all_labels
      in
      match check_group ~schedule:(Fmt.str "bitset-seeded-%d" seed)
              (fun () -> pick) group with
      | None -> false
      | Some r ->
        let base = Machine.thread_base r.final_ref in
        let ok_event (ev : Machine.event) =
          let p = program_of group (base ev.iid.Iid.tid) in
          let pc = Ksim.Program.position_of_label p ev.iid.Iid.label in
          let flags = Machine.instr_flags p pc in
          let statics = Machine.instr_globals p pc in
          let has bit = flags land bit <> 0 in
          let access_ok =
            match ev.access with
            | None -> true
            | Some a ->
              has Machine.Flags.accesses
              && (match a.Ksim.Access.kind with
                 | Ksim.Instr.Read -> has Machine.Flags.read
                 | Ksim.Instr.Write -> has Machine.Flags.write
                 | Ksim.Instr.Update -> has Machine.Flags.update)
              &&
              (* watchpoint parity: a dynamic global access must be in
                 the static watchpoint set (no missed watchpoint), and a
                 pc whose static set avoids every watched global must
                 never dynamically touch one (no spurious hit). *)
              (match a.Ksim.Access.addr with
              | Ksim.Addr.Global gv ->
                List.mem gv statics
                && (not (List.mem gv watched)
                   || List.exists (fun s -> List.mem s watched) statics)
              | _ -> true)
          in
          access_ok
          && (ev.lock_op = None || has Machine.Flags.lock)
          && (ev.spawned = [] || has Machine.Flags.spawn)
        in
        let static_ok = List.for_all ok_event r.trace_ref in
        (* breakpoint parity: both engines hit the same breakpoints in
           the same order with the same dynamic identities. *)
        let hits trace =
          List.filter_map
            (fun (ev : Machine.event) ->
              if List.mem ev.iid.Iid.label breaks then
                Some (Iid.to_string ev.iid)
              else None)
            trace
        in
        let break_ok = hits r.trace_ref = hits r.trace_cmp in
        if not (static_ok && break_ok) then
          dump_counterexample ~schedule:(Fmt.str "bitset-seeded-%d" seed)
            ~picked:[] ~step:r.steps
            ~reason:
              (if static_ok then "breakpoint hit sequences diverge"
               else "static flag/watchpoint table contradicts a dynamic event")
            group;
        static_ok && break_ok)

(* --- corpus bugs ------------------------------------------------------------ *)

let test_corpus_bug (bug : Bugs.Bug.t) () =
  let case = bug.case () in
  List.iter
    (fun (schedule, mk) ->
      match check_group ~schedule mk case.group with
      | None ->
        Alcotest.failf "%s: engines diverge under %s (see %s)" bug.id
          schedule counterexample_file
      | Some (_ : run) -> ())
    schedules

(* --- fault-injected diagnoses ----------------------------------------------- *)

(* Identical seeded fault streams on both engines must produce
   byte-identical reports: faults consult only their own PRNG and the
   sequence of decision points, which engine parity keeps identical. *)
let fault_spec =
  match Hypervisor.Faults.spec_of_string "rate=0.2" with
  | Ok s -> s
  | Error e -> failwith e

let test_faulted_parity (bug : Bugs.Bug.t) () =
  List.iter
    (fun seed ->
      let report engine =
        let faults = Hypervisor.Faults.create ~seed fault_spec in
        Aitia.Report.to_string
          (Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
             ~faults ~engine (bug.case ()))
      in
      checks
        (Fmt.str "%s: identical faulted report at seed %d" bug.id seed)
        (report Engine.Reference) (report Engine.Compiled))
    [ 3; 11 ]

(* --- suite ------------------------------------------------------------------- *)

let () =
  (try Sys.remove counterexample_file with Sys_error _ -> ());
  (match Sys.getenv_opt "QCHECK_LONG" with
  | Some _ -> Fmt.pr "engine: QCHECK_LONG set, extended iteration count@."
  | None -> ());
  let corpus_cases =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        Alcotest.test_case bug.id `Quick (test_corpus_bug bug))
      Bugs.Registry.all
  in
  let faulted_cases =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        Alcotest.test_case bug.id `Slow (test_faulted_parity bug))
      [ Bugs.Fig1_nullderef.bug; Bugs.Fig5_search.bug ]
  in
  Alcotest.run "engine"
    [ ( "generated",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_lockstep;
          Alcotest.test_case "differential coverage" `Quick
            test_lockstep_coverage ] );
      ( "snapshots",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_restore_equals_fresh;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_detach_equals_original ] );
      ( "instrumentation",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_bitset_parity ]
      );
      ("corpus", corpus_cases);
      ("faulted", faulted_cases) ]
