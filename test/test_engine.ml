(* Reference-vs-compiled differential oracle: the engine parity harness.

   The compiled in-place arena interpreter must be observably
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

   Property tests additionally pin the compiled engine's linear
   contract (a machine a later step moved past raises on every use,
   while the reference engine's stays valid; outcomes kept from earlier
   VM runs keep their state) and its static instrumentation tables
   (flag-bitset and watchpoint parity against dynamic events under
   randomly placed breakpoints and watchpoints).

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

(* --- linear compiled machines ---------------------------------------------- *)

(* A compiled machine is linear: once [step m] returns [m'], [m] must
   fail loudly on every further step or state query instead of
   answering with [m']'s state.  A refused step leaves the machine
   current, and so does a leak check that flags nothing.  The
   reference engine stays persistent: its old machines keep their
   state. *)
let raises_stale f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let stale m tid =
  raises_stale (fun () -> Engine.step m tid)
  && raises_stale (fun () -> Machine.runnable m)
  && raises_stale (fun () -> Machine.first_runnable m)
  && raises_stale (fun () -> Machine.fingerprint m)
  && raises_stale (fun () -> Machine.can_step m tid)
  && raises_stale (fun () -> Machine.next_pc m tid)
  && raises_stale (fun () -> Machine.failed m)
  && raises_stale (fun () -> Machine.check_leaks m)

let arb_linear =
  QCheck.make
    ~print:(fun (g, seed) ->
      Fmt.str "seed=%d@.%s" seed (Oracle_gen.render_group g))
    QCheck.Gen.(pair Oracle_gen.gen_engine_group (int_range 0 1000))

let prop_stale_handles_raise =
  QCheck.Test.make ~count:120 ~long_factor:4
    ~name:"compiled engine: a stepped-past machine raises on use"
    arb_linear
    (fun (group, seed) ->
      let st = Random.State.make [| seed |] in
      let pick tids = List.nth tids (Random.State.int st (List.length tids)) in
      let rec drive r c steps =
        match Machine.runnable c with
        | [] ->
          (* Every thread is done or blocked: the refused step and a
             leak check that flags nothing keep [c] current; one that
             flags a leak is a new state. *)
          let refused =
            match Engine.step c 0 with Error _ -> true | Ok _ -> false
          in
          let failure = Machine.failed c in
          let c' = Machine.check_leaks c in
          refused
          && (if Machine.failed c' = failure then
                String.equal (Machine.fingerprint c) (Machine.fingerprint c')
              else stale c 0)
          && String.equal (Machine.fingerprint c')
               (Machine.fingerprint (Machine.check_leaks r))
        | _ when steps >= 2_000 -> true
        | tids -> (
          let tid = pick tids in
          let fp = Machine.fingerprint r in
          match (try_step r tid, try_step c tid) with
          | S_ok (r', _), S_ok (c', _) ->
            stale c tid
            && String.equal (Machine.fingerprint r) fp
            && String.equal (Machine.fingerprint c') (Machine.fingerprint r')
            && drive r' c' (steps + 1)
          | S_model _, S_model _ ->
            (* A rejected model mutates nothing before it raises. *)
            String.equal (Machine.fingerprint c) fp
          | _ -> false)
      in
      let ok =
        drive (Engine.boot Engine.Reference group)
          (Engine.boot Engine.Compiled group)
          0
      in
      if not ok then
        dump_counterexample ~schedule:(Fmt.str "linear-seeded-%d" seed)
          ~picked:[] ~step:0
          ~reason:"a stale compiled machine answered, or a current one raised"
          group;
      ok)

(* Without a per-run copy, each outcome's [final] must still own its
   state: kept outcomes of earlier [Vm.run]s answer exactly as they did
   right after their run, however many runs the same VM makes later. *)
let test_kept_outcomes (bug : Bugs.Bug.t) () =
  let group = (bug.case ()).group in
  let db = Kcov.create () in
  let learn (o : Hypervisor.Controller.outcome) =
    Kcov.add_trace ~thread_base:(Machine.thread_base o.final) db o.trace
  in
  let observe (o : Hypervisor.Controller.outcome) =
    ( Machine.fingerprint o.final,
      failure_str (Machine.check_leaks o.final),
      List.map Race.key (Race.pending_of_failure ~db ~final:o.final o.trace) )
  in
  let runs engine =
    let vm = Hypervisor.Vm.create ~engine group in
    let run seed =
      let st = Random.State.make [| seed |] in
      Hypervisor.Vm.run vm (fun m ->
          let tids = Machine.runnable m in
          Some (List.nth tids (Random.State.int st (List.length tids))))
    in
    let first = List.map run [ 1; 2; 3; 4; 5; 6 ] in
    List.iter learn first;
    let seen = List.map observe first in
    List.iter (fun seed -> ignore (run seed)) [ 7; 8; 9; 10 ];
    (seen, List.map observe first)
  in
  let seen_r, later_r = runs Engine.Reference in
  let seen_c, later_c = runs Engine.Compiled in
  checkb (bug.id ^ ": kept reference outcomes unchanged") true
    (seen_r = later_r);
  checkb (bug.id ^ ": kept compiled outcomes unchanged") true
    (seen_c = later_c);
  checkb (bug.id ^ ": engines agree on kept outcomes") true (seen_r = seen_c)

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
      ( "linear",
        QCheck_alcotest.to_alcotest ~speed_level:`Quick
          prop_stale_handles_raise
        :: List.map
             (fun (bug : Bugs.Bug.t) ->
               Alcotest.test_case ("kept outcomes " ^ bug.id) `Quick
                 (test_kept_outcomes bug))
             Bugs.Registry.all );
      ( "instrumentation",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_bitset_parity ]
      );
      ("corpus", corpus_cases);
      ("faulted", faulted_cases) ]
