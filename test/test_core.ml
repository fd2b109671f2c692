(* Tests for LIFS, Causality Analysis, chain construction and the
   diagnose pipeline, mostly exercised through the paper's own
   examples. *)

module Iid = Ksim.Access.Iid

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let chain_string (report : Aitia.Diagnose.report) =
  match report.chain with
  | Some c -> Aitia.Chain.to_string c
  | None -> "-"

let diagnose (bug : Bugs.Bug.t) =
  Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
    (bug.case ())

(* --- LIFS ---------------------------------------------------------------- *)

(* The first slice of a bug, realized: its guest, prologue and crash. *)
let realized (bug : Bugs.Bug.t) =
  let case = bug.case () in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | Some (group, prologue) ->
    (group, prologue, Trace.History.crash case.history)
  | None -> Alcotest.fail "slice not realizable"

let lifs_on ?order ?on_run (bug : Bugs.Bug.t) =
  let group, prologue, crash = realized bug in
  let vm = Hypervisor.Vm.create group in
  ( Aitia.Lifs.search ~prologue ?order ?on_run vm
      ~target:(Trace.Crash.matches crash) (),
    vm )

let test_lifs_reproduces_fig1 () =
  let result, vm = lifs_on Bugs.Fig1_nullderef.bug in
  (match result.found with
  | None -> Alcotest.fail "fig1 not reproduced"
  | Some s -> (
    checki "two races" 2 (List.length s.races);
    match s.failure with
    | Ksim.Failure.Null_dereference _ -> ()
    | f -> Alcotest.failf "unexpected failure %s" (Ksim.Failure.to_string f)));
  checki "interleaving count 1" 1 result.stats.interleavings;
  checki "vm accounted" result.stats.schedules (Hypervisor.Vm.runs vm)

let test_lifs_serial_phase_first () =
  (* fig7 manifests serially: LIFS must find it with 0 interleavings on
     the very first schedule. *)
  let result, _ = lifs_on Bugs.Fig7_nested.bug in
  checki "interleavings" 0 result.stats.interleavings;
  checki "one schedule" 1 result.stats.schedules

let test_lifs_explores_deeper_only_when_needed () =
  let result, _ = lifs_on Bugs.Cve_2017_15649.bug in
  checki "needs two preemptions" 2 result.stats.interleavings;
  checkb "prunes equivalents" true (result.stats.pruned > 0)

let test_lifs_gives_up_within_bound () =
  (* A race-free group can never reproduce the reported crash. *)
  let open Ksim.Program.Build in
  let t name =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program = Ksim.Program.make ~name [ assign "a" "x" (cint 1) ];
      resources = [] }
  in
  let group = Ksim.Program.group ~name:"quiet" [ t "A"; t "B" ] in
  let vm = Hypervisor.Vm.create group in
  let result =
    Aitia.Lifs.search ~max_interleavings:2 vm ~target:(fun _ -> true) ()
  in
  checkb "not found" true (result.found = None);
  checkb "ran something" true (result.stats.schedules > 0)

let test_lifs_discovers_kthread_dynamically () =
  (* fig5: thread K exists only on the race-steered path; LIFS must find
     the failure involving it. *)
  let result, _ = lifs_on Bugs.Fig5_search.bug in
  match result.found with
  | None -> Alcotest.fail "fig5 not reproduced"
  | Some s ->
    let tids =
      List.sort_uniq compare
        (List.map
           (fun (e : Ksim.Machine.event) -> e.iid.Iid.tid)
           s.outcome.trace)
    in
    checkb "three contexts in failing run" true (List.length tids >= 3)

(* The search runs one candidate at a time and ends at the reproduction:
   the failing schedule is the last run, in either order.  [on_run] sees
   every explored run, the derived ones too; only the executed ones run
   on the VM. *)
let test_lifs_stops_at_reproduction () =
  List.iter
    (fun order ->
      let seen = ref [] in
      let on_run s o = seen := (s, o) :: !seen in
      let result, vm = lifs_on ~order ~on_run Bugs.Cve_2017_15649.bug in
      match (result.found, !seen) with
      | Some s, (last, o) :: _ ->
        checkb "the reproducing schedule is the last run" true
          (String.equal
             (Hypervisor.Schedule.preemption_key last)
             (Hypervisor.Schedule.preemption_key s.schedule));
        checkb "with its own outcome" true (o == s.outcome);
        checki "every run is seen"
          (result.stats.schedules + result.stats.trace_equivalent)
          (List.length !seen);
        checki "executed runs on the VM" result.stats.schedules
          (Hypervisor.Vm.runs vm);
        checkb "backward order derives runs" (order = `Fixed)
          (result.stats.trace_equivalent > 0)
      | _ -> Alcotest.fail "cve-2017-15649 not reproduced")
    [ `Fixed; `Gain ]

(* Deriving trace-equivalent runs changes what runs, not what is
   explored: an armed injector that never fires runs every candidate,
   and against it the default search of every case reproduces with the
   same schedule and chain, exploring as many runs as it executes. *)
let test_lifs_derivation_explores_the_same () =
  let zero =
    match Hypervisor.Faults.spec_of_string "rate=0" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let run ?faults () =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ?faults (bug.case ())
      in
      let derived = run () in
      let executed = run ~faults:(Hypervisor.Faults.create zero) () in
      Alcotest.(check string) (bug.id ^ ": chain") (chain_string executed)
        (chain_string derived);
      (match (derived.lifs.found, executed.lifs.found) with
      | Some d, Some e ->
        Alcotest.(check string) (bug.id ^ ": reproducing schedule")
          (Hypervisor.Schedule.preemption_key e.schedule)
          (Hypervisor.Schedule.preemption_key d.schedule)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: reproduction differs" bug.id);
      checki (bug.id ^ ": nothing derived under the injector") 0
        executed.lifs.stats.trace_equivalent;
      checki (bug.id ^ ": explored runs") executed.lifs.stats.schedules
        (derived.lifs.stats.schedules + derived.lifs.stats.trace_equivalent))
    Bugs.Registry.all

(* The search keeps no outcome but the reproducing one: every other run
   handed to [on_run] is garbage once the search returns, and [runs]
   holds exactly the reproducing run — also when the diagnosis resumes
   from a journal instead of searching. *)
let test_lifs_retains_only_the_reproduction () =
  let bug = Bugs.Cve_2017_15649.bug in
  let outcomes = ref [] in
  let on_run ~slice:_ _ (o : Hypervisor.Controller.outcome) =
    let w = Weak.create 1 in
    Weak.set w 0 (Some o);
    outcomes := w :: !outcomes
  in
  let path = Filename.temp_file "aitia-retention" ".json" in
  let diagnose ?on_run journal =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
      ~journal ?on_run (bug.case ())
  in
  let only_the_reproduction what (report : Aitia.Diagnose.report) =
    match (report.lifs.found, report.lifs.runs) with
    | Some s, [ (sched, o) ] ->
      checkb (what ^ ": runs holds the reproducing run") true
        (sched == s.schedule && o == s.outcome)
    | _ -> Alcotest.failf "%s: runs is not the reproducing run" what
  in
  let fresh = diagnose ~on_run (Aitia.Journal.create path) in
  only_the_reproduction "fresh" fresh;
  Gc.full_major ();
  let live =
    List.filter (fun w -> Weak.check w 0) (List.tl !outcomes)
  in
  checkb "runs were seen" true (List.length !outcomes > 1);
  checki "non-reproducing outcomes still live" 0 (List.length live);
  (match Aitia.Journal.load path with
  | Ok j -> only_the_reproduction "resumed" (diagnose j)
  | Error e -> Alcotest.failf "journal: %s" e);
  Sys.remove path

(* Replay parity: for every run LIFS hands out, re-stepping its recorded
   thread sequence on a fresh boot of the same engine and group gives
   the same trace, event for event, and the same final machine.  Every
   case, under one pipeline setting. *)
let test_replay_parity ~engine setting () =
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let case = bug.case () in
      let groups =
        Trace.Slicer.slices case.history
        |> List.filter_map (fun slice ->
               Option.map fst (Aitia.Diagnose.realize case slice))
        |> Array.of_list
      in
      let n = ref 0 in
      let on_run ~slice _ (o : Hypervisor.Controller.outcome) =
        incr n;
        let what = Fmt.str "%s run %d" bug.id !n in
        let r =
          Hypervisor.Controller.replay
            (Ksim.Engine.boot engine groups.(slice))
            (Hypervisor.Controller.record o)
        in
        checkb (what ^ ": same trace") true (r.trace = o.trace);
        checki (what ^ ": same steps") o.steps r.steps;
        let threads (m : Ksim.Machine.t) =
          List.map
            (fun tid ->
              (tid, Ksim.Machine.thread_base m tid, Ksim.Machine.is_done m tid))
            (Ksim.Machine.thread_ids m)
        in
        checkb (what ^ ": same threads") true
          (threads r.final = threads o.final);
        Alcotest.(check string)
          (what ^ ": same final machine")
          (Ksim.Machine.fingerprint o.final)
          (Ksim.Machine.fingerprint r.final)
      in
      let faults =
        match setting with
        | `Faults ->
          Some (Hypervisor.Faults.create ~seed:7 (Hypervisor.Faults.mixed 0.05))
        | _ -> None
      in
      let prune, order =
        match setting with
        | `Gain_invariants -> (Some `Invariants, Some `Gain)
        | _ -> (None, None)
      in
      ignore
        (Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
           ?prune ?order ?faults ~engine ~on_run case
          : Aitia.Diagnose.report);
      checkb (bug.id ^ ": runs were replayed") true (!n > 0))
    Bugs.Registry.all

(* Access-database parity: the in-place database LIFS learns into, fed
   each run as LIFS hands it out, against a whole-trace fold of every
   event into persistent maps (the database as it was once built, kept
   here as the oracle).  After every run of every case the two hold the
   same sites and, for every address, the same accessors in the same
   order: that order feeds the LIFS candidate order, and so the
   chains. *)
module Site_map = Map.Make (struct
  type t = Ksim.Kcov.site

  let compare = Ksim.Kcov.site_compare
end)

type fold_db = {
  f_by_site : (Ksim.Addr.t * Ksim.Instr.access_kind) list Site_map.t;
  f_by_addr : (Ksim.Kcov.site * Ksim.Instr.access_kind) list Ksim.Addr.Map.t;
}

let fold_add_event ~thread_base db (e : Ksim.Machine.event) =
  match e.access with
  | None -> db
  | Some a ->
    let s =
      { Ksim.Kcov.site_thread = thread_base e.iid.Iid.tid;
        site_label = e.iid.Iid.label }
    in
    let known = Option.value ~default:[] (Site_map.find_opt s db.f_by_site) in
    if List.exists (fun (ad, k) -> Ksim.Addr.equal ad a.addr && k = a.kind) known
    then db
    else
      { f_by_site = Site_map.add s ((a.addr, a.kind) :: known) db.f_by_site;
        f_by_addr =
          Ksim.Addr.Map.update a.addr
            (fun l -> Some ((s, a.kind) :: Option.value ~default:[] l))
            db.f_by_addr }

let fold_accessors db addr =
  Ksim.Addr.Map.fold
    (fun a sites acc ->
      if Ksim.Addr.overlaps a addr then List.rev_append sites acc else acc)
    db.f_by_addr []

let test_access_db_parity ~pruned () =
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      (* one database per slice, as each slice's search keeps its own *)
      let dbs = Hashtbl.create 4 in
      let n = ref 0 in
      let on_run ~slice _ (o : Hypervisor.Controller.outcome) =
        incr n;
        let what = Fmt.str "%s run %d" bug.id !n in
        let db, fold =
          match Hashtbl.find_opt dbs slice with
          | Some x -> x
          | None ->
            ( Ksim.Kcov.create (),
              { f_by_site = Site_map.empty; f_by_addr = Ksim.Addr.Map.empty } )
        in
        let thread_base = Ksim.Machine.thread_base o.final in
        Ksim.Kcov.add_trace ~thread_base db o.trace;
        let fold =
          List.fold_left (fold_add_event ~thread_base) fold o.trace
        in
        Hashtbl.replace dbs slice (db, fold);
        checkb (what ^ ": same sites") true
          (Ksim.Kcov.sites db = List.map fst (Site_map.bindings fold.f_by_site));
        Ksim.Addr.Map.iter
          (fun addr _ ->
            if Ksim.Kcov.accessors db addr <> fold_accessors fold addr then
              Alcotest.failf "%s: accessors of %a differ" what Ksim.Addr.pp
                addr)
          fold.f_by_addr
      in
      let prune, order =
        if pruned then (Some `Invariants, Some `Gain) else (None, None)
      in
      ignore
        (Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
           ?prune ?order ~on_run (bug.case ())
          : Aitia.Diagnose.report);
      checkb (bug.id ^ ": runs were learned") true (!n > 0))
    Bugs.Registry.all

(* --- Causality Analysis --------------------------------------------------- *)

let causality_of (bug : Bugs.Bug.t) =
  let report = diagnose bug in
  match report.causality with
  | Some ca -> (report, ca)
  | None -> Alcotest.failf "%s not diagnosed" bug.id

let test_causality_fig1 () =
  let _, ca = causality_of Bugs.Fig1_nullderef.bug in
  checki "two root causes" 2 (List.length ca.root_causes);
  checki "no benign" 0 (List.length ca.benign);
  checki "one edge" 1 (List.length ca.edges)

let test_causality_filters_benign () =
  let _, ca = causality_of Bugs.Cve_2017_15649.bug in
  checki "four roots" 4 (List.length ca.root_causes);
  checkb "noise filtered" true (List.length ca.benign > 0);
  (* No statistics-counter race survives into the root causes. *)
  List.iter
    (fun (r : Aitia.Race.t) ->
      checkb "no noise in roots" false
        (String.length r.first.iid.Iid.label > 4
        && String.sub r.first.iid.Iid.label 0 4 = "A_n_"))
    ca.root_causes

let test_causality_ambiguity_fig7 () =
  let _, ca = causality_of Bugs.Fig7_nested.bug in
  checki "one ambiguous" 1 (List.length ca.ambiguous);
  let amb = List.hd ca.ambiguous in
  (* the surrounding race A1 => B2 *)
  Alcotest.(check string) "surrounding race" "A1" amb.first.iid.Iid.label

(* Flips are decided one at a time, in test order: each checkpoint
   comes with exactly the runs of the executed flips up to it, so every
   flip ran before the next one was picked. *)
let test_causality_one_flip_at_a_time () =
  let bug = Bugs.Cve_2017_15649.bug in
  let found =
    match (fst (lifs_on bug)).found with
    | Some s -> s
    | None -> Alcotest.fail "cve-2017-15649 not reproduced"
  in
  let group, prologue, _ = realized bug in
  List.iter
    (fun prune ->
      let checkpoints = ref [] in
      let ca =
        Aitia.Causality.analyze ~prologue ~prune
          ~checkpoint:(fun t st -> checkpoints := (t, st) :: !checkpoints)
          (Hypervisor.Vm.create group) ~failing:found.outcome
          ~races:found.races ()
      in
      let checkpoints = List.rev !checkpoints in
      let race (t : Aitia.Causality.tested) = t.race in
      checkb "one checkpoint per flip, in test order" true
        (List.equal Aitia.Race.equal
           (List.map (fun (t, _) -> race t) checkpoints)
           (List.map race ca.tested));
      ignore
        (List.fold_left
           (fun runs
                ((t : Aitia.Causality.tested), (st : Aitia.Causality.stats)) ->
             let runs = if t.pruned = None then runs + 1 else runs in
             checki "runs so far" runs st.schedules;
             runs)
           0 checkpoints
          : int))
    [ `None; `Invariants ]

(* Flips are tested backward, latest second access first, whatever
   the search order: on the 22 real bugs under the pruned, gain-ordered
   pipeline too, the tested races are the reproducing run's races in
   {!Causality.test_order}. *)
let test_causality_tests_backward () =
  (let _, ca = causality_of Bugs.Fig1_nullderef.bug in
   match ca.tested with
   | first :: _ ->
     Alcotest.(check string) "last race first" "A2"
       first.race.second.iid.Iid.label
   | [] -> Alcotest.fail "nothing tested");
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let report =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~prune:`Invariants ~order:`Gain (bug.case ())
      in
      match (report.lifs.found, report.causality) with
      | Some s, Some ca ->
        checkb (bug.id ^ ": flips in test order") true
          (List.equal Aitia.Race.equal
             (List.map (fun (t : Aitia.Causality.tested) -> t.race) ca.tested)
             (Aitia.Causality.test_order s.races))
      | _ -> Alcotest.failf "%s not diagnosed" bug.id)
    (Bugs.Registry.cves @ Bugs.Registry.syzkaller)

let test_flip_plan_moves_block () =
  (* Directly exercise flip-plan construction on a synthetic trace. *)
  let open Ksim.Program.Build in
  let t name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program = Ksim.Program.make ~name instrs;
      resources = [] }
  in
  let grp =
    Ksim.Program.group ~name:"flip"
      [ t "A" [ store "a1" (g "x") (cint 1); store "a2" (g "y") (cint 1) ];
        t "B" [ load "b1" "v" (g "y"); load "b2" "w" (g "x") ] ]
  in
  let plan0 =
    Hypervisor.Schedule.plan
      [ Iid.make ~tid:0 ~label:"a1" ~occ:1;
        Iid.make ~tid:0 ~label:"a2" ~occ:1;
        Iid.make ~tid:1 ~label:"b1" ~occ:1;
        Iid.make ~tid:1 ~label:"b2" ~occ:1 ]
  in
  let o =
    Hypervisor.Controller.run (Ksim.Machine.create grp)
      (Hypervisor.Schedule.plan_policy plan0)
  in
  let races = Aitia.Race.of_trace o.trace in
  let r =
    List.find
      (fun (r : Aitia.Race.t) -> r.first.iid.Iid.label = "a1")
      races
  in
  let flipped =
    Aitia.Causality.flip_plan (Analysis.Flipfeas.context o.trace) r
  in
  let o' =
    Hypervisor.Controller.run (Ksim.Machine.create grp)
      (Hypervisor.Schedule.plan_policy flipped)
  in
  (* In the flipped run b2 must precede a1. *)
  let pos label =
    let rec go i = function
      | [] -> -1
      | (e : Ksim.Machine.event) :: rest ->
        if String.equal e.iid.Iid.label label then i else go (i + 1) rest
    in
    go 0 o'.trace
  in
  checkb "b2 before a1" true (pos "b2" < pos "a1");
  checkb "b1 before b2 (program order kept)" true (pos "b1" < pos "b2")

let test_flip_critical_section_as_unit () =
  (* ext-lock: both endpoints are lock-protected; the flip must displace
     the consumer's whole critical section, not deadlock inside it. *)
  let report = diagnose Bugs.Ext_lock_order.bug in
  match report.causality with
  | None -> Alcotest.fail "not diagnosed"
  | Some ca ->
    checki "one root cause" 1 (List.length ca.root_causes);
    let r = List.hd ca.root_causes in
    Alcotest.(check string) "the CS-order race" "B2"
      r.first.iid.Iid.label

(* Shared scaffolding for the flip-plan edge cases below: run a fixed
   plan, find the race whose first endpoint is [first_label], flip it,
   and re-run the flipped plan. *)
let flip_and_rerun grp plan0 ~first_label =
  let o =
    Hypervisor.Controller.run (Ksim.Machine.create grp)
      (Hypervisor.Schedule.plan_policy plan0)
  in
  let r =
    List.find
      (fun (r : Aitia.Race.t) -> r.first.iid.Iid.label = first_label)
      (Aitia.Race.of_trace o.trace)
  in
  let flipped =
    Aitia.Causality.flip_plan (Analysis.Flipfeas.context o.trace) r
  in
  Hypervisor.Controller.run (Ksim.Machine.create grp)
    (Hypervisor.Schedule.plan_policy flipped)

let pos_in (o : Hypervisor.Controller.outcome) label =
  let rec go i = function
    | [] -> -1
    | (e : Ksim.Machine.event) :: rest ->
      if String.equal e.iid.Iid.label label then i else go (i + 1) rest
  in
  go 0 o.trace

let spec name instrs =
  { Ksim.Program.spec_name = name;
    context = Ksim.Program.Syscall { call = name; sysno = 0 };
    program = Ksim.Program.make ~name instrs;
    resources = [] }

let plan_of labels =
  Hypervisor.Schedule.plan
    (List.map (fun (tid, label) -> Iid.make ~tid ~label ~occ:1) labels)

let test_flip_nested_sections () =
  (* Both endpoints sit under the same two nested locks: the flip must
     displace the consumer's outermost section as one unit, keeping the
     lock order inside it, and the re-run must not deadlock. *)
  let open Ksim.Program.Build in
  let grp =
    Ksim.Program.group ~name:"nested-flip" ~locks:[ "o"; "m" ]
      ~globals:[ ("x", Ksim.Value.Int 0) ]
      [ spec "A"
          [ lock "ao" "o"; lock "am" "m"; store "a1" (g "x") (cint 1);
            unlock "um" "m"; unlock "uo" "o" ];
        spec "B"
          [ lock "bo" "o"; lock "bm" "m"; load "b1" "v" (g "x");
            unlock "vm" "m"; unlock "vo" "o" ] ]
  in
  let plan0 =
    plan_of
      [ (0, "ao"); (0, "am"); (0, "a1"); (0, "um"); (0, "uo");
        (1, "bo"); (1, "bm"); (1, "b1"); (1, "vm"); (1, "vo") ]
  in
  let o = flip_and_rerun grp plan0 ~first_label:"a1" in
  checkb "completes (no deadlock)" true
    (o.verdict = Hypervisor.Controller.Completed);
  let p = pos_in o in
  checkb "b1 before a1" true (p "b1" < p "a1");
  checkb "B's outer lock moved with it" true (p "bo" < p "bm");
  checkb "whole nested unit precedes A's sections" true (p "vo" < p "ao")

let test_flip_hoists_nested_spawns () =
  (* Inside the flip window X queues worker w and w queues u, the
     switch target: u can only run once w has queued it and w once X
     has, so the plan hoists X up to its queue_work and w up to its own,
     and leaves the rest of the window (x2, w3) behind the first
     endpoint. *)
  let open Ksim.Program.Build in
  let entry name instrs = (name, Ksim.Program.make ~name instrs) in
  let grp =
    Ksim.Program.group ~name:"nested-spawn-flip"
      ~globals:[ ("x", Ksim.Value.Int 0) ]
      ~entries:
        [ entry "w" [ nop "w1"; queue_work "w2" "u"; nop "w3" ];
          entry "u" [ load "u1" "v" (g "x") ] ]
      [ spec "A" [ store "a1" (g "x") (cint 1); nop "a2" ];
        spec "X" [ queue_work "x1" "w"; nop "x2" ] ]
  in
  let trace =
    [ (0, "a1"); (1, "x1"); (2, "w1"); (2, "w2"); (1, "x2"); (2, "w3");
      (3, "u1"); (0, "a2") ]
  in
  let o =
    Hypervisor.Controller.run (Ksim.Machine.create grp)
      (Hypervisor.Schedule.plan_policy (plan_of trace))
  in
  Alcotest.(check (list string))
    "the failing order ran as planned" (List.map snd trace)
    (List.map (fun (e : Ksim.Machine.event) -> e.iid.Iid.label) o.trace);
  let r =
    List.find
      (fun (r : Aitia.Race.t) -> r.first.iid.Iid.label = "a1")
      (Aitia.Race.of_trace o.trace)
  in
  let plan =
    Aitia.Causality.flip_plan (Analysis.Flipfeas.context o.trace) r
  in
  Alcotest.(check (list string))
    "planned order"
    [ "t1:x1"; "t2:w1"; "t2:w2"; "t3:u1"; "t0:a1"; "t1:x2"; "t2:w3";
      "t0:a2" ]
    (List.map
       (fun (iid : Iid.t) -> Fmt.str "t%d:%s" iid.tid iid.label)
       plan.Hypervisor.Schedule.events);
  let o' =
    Hypervisor.Controller.run (Ksim.Machine.create grp)
      (Hypervisor.Schedule.plan_policy plan)
  in
  checkb "u's endpoint runs before the first endpoint" true
    (pos_in o' "u1" >= 0 && pos_in o' "u1" < pos_in o' "a1")

let test_flip_unit_spans_whole_section () =
  (* The race is in the middle of A's critical section; flipping it must
     displace B's whole section before A's section *start*, not merely
     before the racing store. *)
  let open Ksim.Program.Build in
  let grp =
    Ksim.Program.group ~name:"span-flip" ~locks:[ "m" ]
      ~globals:[ ("x", Ksim.Value.Int 0); ("y", Ksim.Value.Int 0) ]
      [ spec "A"
          [ lock "la" "m"; store "a1" (g "x") (cint 1);
            store "a2" (g "y") (cint 1); unlock "ua" "m" ];
        spec "B"
          [ lock "lb" "m"; load "b1" "v" (g "y"); unlock "ub" "m" ] ]
  in
  let plan0 =
    plan_of
      [ (0, "la"); (0, "a1"); (0, "a2"); (0, "ua");
        (1, "lb"); (1, "b1"); (1, "ub") ]
  in
  let o = flip_and_rerun grp plan0 ~first_label:"a2" in
  checkb "completes (no deadlock)" true
    (o.verdict = Hypervisor.Controller.Completed);
  let p = pos_in o in
  checkb "b1 before the racing store a2" true (p "b1" < p "a2");
  checkb "b1 before the whole section (a1 too)" true (p "b1" < p "a1");
  checkb "B releases before A acquires" true (p "ub" < p "la")

let test_ambiguity_both_root_causes () =
  (* §3.4 / Figure 7: when a surrounding race and the race nested inside
     it are both root causes, the surrounding one is reported ambiguous
     (its flip necessarily also flipped the nested order) and the nested
     one stays certain. *)
  let _, ca = causality_of Bugs.Fig7_nested.bug in
  let amb =
    match ca.ambiguous with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one ambiguous race, got %d"
             (List.length l)
  in
  checkb "the ambiguous (surrounding) race is a root cause" true
    (List.exists (Aitia.Race.equal amb) ca.root_causes);
  let nested =
    List.filter
      (fun r ->
        (not (Aitia.Race.equal amb r)) && Aitia.Race.surrounds amb r)
      ca.root_causes
  in
  checkb "the nested race is also a root cause" true (nested <> []);
  List.iter
    (fun r ->
      checkb "the nested race itself is not ambiguous" false
        (List.exists (Aitia.Race.equal r) ca.ambiguous))
    nested

let test_irq_chain_crosses_boundary () =
  let report = diagnose Bugs.Ext_irq_nic.bug in
  match report.chain with
  | None -> Alcotest.fail "not diagnosed"
  | Some chain ->
    let final =
      match report.lifs.found with
      | Some s -> s.outcome.final
      | None -> Alcotest.fail "no failing run"
    in
    checkb "an endpoint runs in hardirq context" true
      (List.exists
         (fun (r : Aitia.Race.t) ->
           Ksim.Machine.thread_context final r.second.iid.Iid.tid
           = Ksim.Program.Hardirq
           || Ksim.Machine.thread_context final r.first.iid.Iid.tid
              = Ksim.Program.Hardirq)
         (Aitia.Chain.races chain))

(* --- chain ----------------------------------------------------------------- *)

let test_chain_fig1 () =
  let report = diagnose Bugs.Fig1_nullderef.bug in
  Alcotest.(check string) "chain"
    "(A1 => B1) --> (B2 => A2) --> null-ptr-deref" (chain_string report)

let test_chain_conjunction_15649 () =
  let report = diagnose Bugs.Cve_2017_15649.bug in
  Alcotest.(check string) "chain"
    "(B2 => A6) /\\ (A2 => B11) --> (A6 => B12) --> (B17 => A12) --> kernel \
     BUG (BUG_ON)"
    (chain_string report)

let test_chain_excludes_ambiguous () =
  let report = diagnose Bugs.Fig7_nested.bug in
  (match report.chain with
  | Some c ->
    checki "chain keeps the certain race" 1 (Aitia.Chain.length c)
  | None -> Alcotest.fail "no chain");
  match report.causality with
  | Some ca -> checki "ambiguity reported" 1 (List.length ca.ambiguous)
  | None -> Alcotest.fail "no causality"

let test_chain_crosses_thread_boundary () =
  let report = diagnose Bugs.Fig9_irqfd.bug in
  match report.chain with
  | None -> Alcotest.fail "no chain"
  | Some c ->
    let tids =
      List.concat_map
        (fun (r : Aitia.Race.t) ->
          [ r.first.iid.Iid.tid; r.second.iid.Iid.tid ])
        (Aitia.Chain.races c)
      |> List.sort_uniq compare
    in
    checkb "three contexts in chain" true (List.length tids >= 3)

(* --- the Sec. 2.1 fix study --------------------------------------------------- *)

let test_wrong_fix_still_fails () =
  (* Enforcing only B17 => A12 (what a single-pattern tool suggests)
     trades the BUG_ON for a double list_add corruption (Sec. 2.1). *)
  let r =
    Aitia.Diagnose.diagnose ~max_steps:20_000
      (Bugs.Cve_2017_15649_fixes.wrong_fix_case ())
  in
  (match r.lifs.found with
  | Some s -> (
    match s.failure with
    | Ksim.Failure.List_corruption _ -> ()
    | f -> Alcotest.failf "unexpected failure %s" (Ksim.Failure.to_string f))
  | None -> Alcotest.fail "wrong fix should still fail");
  checkb "diagnosed" true (Aitia.Diagnose.reproduced r)

let test_correct_fix_passes () =
  (* The developers' fix cuts the chain's head conjunction: no schedule
     reproduces any failure. *)
  let r =
    Aitia.Diagnose.diagnose ~max_steps:20_000
      (Bugs.Cve_2017_15649_fixes.correct_fix_case ())
  in
  checkb "not reproduced" false (Aitia.Diagnose.reproduced r);
  checkb "searched seriously" true (r.lifs.stats.schedules > 5)

let test_unfixed_full_model_diagnoses () =
  let r =
    Aitia.Diagnose.diagnose ~max_steps:20_000
      (Bugs.Cve_2017_15649_fixes.unfixed_case ())
  in
  checkb "reproduced" true (Aitia.Diagnose.reproduced r)

(* --- diagnose pipeline ------------------------------------------------------ *)

let test_diagnose_selects_right_slice () =
  let report = diagnose Bugs.Fig1_nullderef.bug in
  checkb "reproduced" true (Aitia.Diagnose.reproduced report);
  Alcotest.(check (slist string compare)) "slice threads" [ "A"; "B" ]
    report.slice_threads

let test_diagnose_metrics () =
  let report = diagnose Bugs.Cve_2017_15649.bug in
  match report.metrics with
  | None -> Alcotest.fail "no metrics"
  | Some m ->
    checkb "many accesses" true (m.mem_accessing_instrs > 20);
    checkb "chain much smaller than race set" true
      (m.races_in_chain < m.races_detected);
    checki "chain races" 4 m.races_in_chain

let test_diagnose_falls_through_slices () =
  (* Sec. 4.2: "A slice may not contain the root cause.  If AITIA cannot
     reproduce the failure, AITIA selects the next slice."  Build a
     history whose failure-nearest concurrent window is a harmless decoy;
     the racing pair sits in an earlier window. *)
  let open Ksim.Program.Build in
  let t name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program = Ksim.Program.make ~name instrs;
      resources = [] }
  in
  let racing_a = t "A" [ store "A1" (g "x") (cint 1) ] in
  let racing_b =
    t "B"
      [ load "B1" "v" (g "x");
        bug_on "B2" (Eq (reg "v", cint 1)) ]
  in
  let decoy_c = t "C" [ assign "C1" "r" (cint 0) ] in
  let decoy_d = t "D" [ assign "D1" "r" (cint 0) ] in
  let group =
    Ksim.Program.group ~name:"fallthrough"
      ~globals:[ ("x", Ksim.Value.Int 0) ]
      [ racing_a; racing_b; decoy_c; decoy_d ]
  in
  let enter time call thread =
    { Trace.Event.time;
      kind = Trace.Event.Syscall_enter { call; thread; resources = [] } }
  in
  let exit_ time call thread =
    { Trace.Event.time; kind = Trace.Event.Syscall_exit { call; thread } }
  in
  let history =
    Trace.History.make
      ~events:
        [ (* the racing window, earlier *)
          enter 1.0 "A" "A"; enter 1.01 "B" "B";
          exit_ 1.5 "A" "A"; exit_ 1.5 "B" "B";
          (* the decoy window, nearest to the crash *)
          enter 2.0 "C" "C"; enter 2.01 "D" "D";
          exit_ 2.5 "C" "C"; exit_ 2.5 "D" "D" ]
      ~crash:
        { Trace.Crash.symptom = "kernel BUG (BUG_ON)"; location = Some "B2";
          subsystem = "test"; report_time = 2.6 }
  in
  let case : Aitia.Diagnose.case =
    { case_name = "fallthrough"; subsystem = "test"; group; history }
  in
  let report = Aitia.Diagnose.diagnose case in
  checkb "reproduced via the second slice" true
    (Aitia.Diagnose.reproduced report);
  checki "decoy slice tried first" 2 report.slices_tried;
  Alcotest.(check (slist string compare)) "right slice" [ "A"; "B" ]
    report.slice_threads

let test_report_renders () =
  let report = diagnose Bugs.Fig1_nullderef.bug in
  let s = Aitia.Report.to_string report in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions chain" true (contains "causality chain" s);
  checkb "mentions root causes" true (contains "root-cause races" s);
  checkb "non-empty" true (String.length s > 100)

let () =
  Alcotest.run "core"
    [ ( "lifs",
        [ Alcotest.test_case "reproduces fig1" `Quick
            test_lifs_reproduces_fig1;
          Alcotest.test_case "serial first" `Quick
            test_lifs_serial_phase_first;
          Alcotest.test_case "deeper when needed" `Quick
            test_lifs_explores_deeper_only_when_needed;
          Alcotest.test_case "bounded give-up" `Quick
            test_lifs_gives_up_within_bound;
          Alcotest.test_case "dynamic kthread" `Quick
            test_lifs_discovers_kthread_dynamically;
          Alcotest.test_case "stops at the reproduction" `Quick
            test_lifs_stops_at_reproduction;
          Alcotest.test_case "derivation explores the same runs" `Quick
            test_lifs_derivation_explores_the_same;
          Alcotest.test_case "retains only the reproduction" `Quick
            test_lifs_retains_only_the_reproduction ] );
      ( "replay parity",
        List.concat_map
          (fun (engine, ename) ->
            List.map
              (fun (setting, sname) ->
                Alcotest.test_case
                  (Fmt.str "%s, %s" ename sname)
                  `Quick
                  (test_replay_parity ~engine setting))
              [ (`Plain, "plain"); (`Gain_invariants, "gain+invariants");
                (`Faults, "rate=0.05 faults") ])
          [ (Ksim.Engine.Compiled, "compiled");
            (Ksim.Engine.Reference, "reference") ] );
      ( "access database",
        [ Alcotest.test_case "fold parity, plain" `Quick
            (test_access_db_parity ~pruned:false);
          Alcotest.test_case "fold parity, gain+invariants" `Quick
            (test_access_db_parity ~pruned:true) ] );
      ( "causality",
        [ Alcotest.test_case "fig1 roots" `Quick test_causality_fig1;
          Alcotest.test_case "benign filtered" `Quick
            test_causality_filters_benign;
          Alcotest.test_case "ambiguity" `Quick test_causality_ambiguity_fig7;
          Alcotest.test_case "one flip at a time" `Quick
            test_causality_one_flip_at_a_time;
          Alcotest.test_case "backward order" `Quick
            test_causality_tests_backward;
          Alcotest.test_case "flip plan" `Quick test_flip_plan_moves_block;
          Alcotest.test_case "critical-section unit" `Quick
            test_flip_critical_section_as_unit;
          Alcotest.test_case "nested sections flip" `Quick
            test_flip_nested_sections;
          Alcotest.test_case "flip unit spans section" `Quick
            test_flip_unit_spans_whole_section;
          Alcotest.test_case "flip hoists nested spawns" `Quick
            test_flip_hoists_nested_spawns;
          Alcotest.test_case "nested+surrounding ambiguity" `Quick
            test_ambiguity_both_root_causes;
          Alcotest.test_case "irq boundary" `Quick
            test_irq_chain_crosses_boundary ] );
      ( "chain",
        [ Alcotest.test_case "fig1 chain" `Quick test_chain_fig1;
          Alcotest.test_case "conjunction" `Quick
            test_chain_conjunction_15649;
          Alcotest.test_case "ambiguous excluded" `Quick
            test_chain_excludes_ambiguous;
          Alcotest.test_case "thread boundary" `Quick
            test_chain_crosses_thread_boundary ] );
      ( "diagnose",
        [ Alcotest.test_case "slice selection" `Quick
            test_diagnose_selects_right_slice;
          Alcotest.test_case "metrics" `Quick test_diagnose_metrics;
          Alcotest.test_case "slice fall-through" `Quick
            test_diagnose_falls_through_slices;
          Alcotest.test_case "wrong fix still fails" `Quick
            test_wrong_fix_still_fails;
          Alcotest.test_case "correct fix passes" `Quick
            test_correct_fix_passes;
          Alcotest.test_case "unfixed full model" `Quick
            test_unfixed_full_model_diagnoses;
          Alcotest.test_case "report" `Quick test_report_renders ] ) ]
