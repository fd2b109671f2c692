(* The static lockset / MHP analyzer: unit tests on small programs and
   the soundness contract over the full bug corpus — every dynamically
   observed data race must be statically classified Unguarded or
   Ambiguous, and seeding LIFS with the hints must not lose any
   reproduction. *)

open Ksim.Program.Build
module Iid = Ksim.Access.Iid

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let check_names msg expected actual =
  Alcotest.(check (list string))
    msg expected
    (Analysis.Lockset.Names.elements actual)

let prog instrs = Ksim.Program.make ~name:"p" instrs

let point_at p label =
  match Analysis.Lockset.find (Analysis.Lockset.of_program p) label with
  | Some pt -> pt
  | None -> Alcotest.failf "no lockset point at %s" label

(* --- absaddr ---------------------------------------------------------- *)

let test_absaddr_of_instr () =
  let open Ksim.Instr in
  Alcotest.(check (option (pair string string)))
    "free is a whole-object write"
    (Some ("obj", "W"))
    (Option.map
       (fun (a, k) ->
         (Analysis.Absaddr.to_string a, Fmt.to_to_string pp_access_kind k))
       (Analysis.Absaddr.of_instr (Free { ptr = Reg "p" })));
  checkb "alloc is not an access" true
    (Analysis.Absaddr.of_instr
       (Alloc
          { dst = "p"; tag = "obj"; fields = []; slots = 0;
            leak_check = false })
    = None);
  checkb "store to a global" true
    (Analysis.Absaddr.of_instr (Store { dst = Global "g"; src = Const (Ksim.Value.Int 1) })
    = Some (Analysis.Absaddr.Global "g", Write))

let test_absaddr_alias () =
  let open Analysis.Absaddr in
  checkb "same global aliases" true (may_alias (Global "g") (Global "g"));
  checkb "distinct globals do not" false
    (may_alias (Global "g") (Global "h"));
  checkb "same field name aliases" true
    (may_alias (Field "state") (Field "state"));
  checkb "distinct fields do not" false
    (may_alias (Field "state") (Field "next"));
  checkb "slots alias slots" true (may_alias Slot Slot);
  checkb "field vs slot do not" false (may_alias (Field "state") Slot);
  checkb "whole aliases fields" true (may_alias Whole (Field "state"));
  checkb "whole aliases slots" true (may_alias Slot Whole);
  checkb "whole does not alias globals" false (may_alias Whole (Global "g"));
  checkb "read-read does not conflict" false
    (conflicting_kinds Ksim.Instr.Read Ksim.Instr.Read);
  checkb "read-write conflicts" true
    (conflicting_kinds Ksim.Instr.Read Ksim.Instr.Write);
  checkb "update-update conflicts" true
    (conflicting_kinds Ksim.Instr.Update Ksim.Instr.Update)

(* --- lockset ---------------------------------------------------------- *)

let test_lockset_straight_line () =
  let p =
    prog
      [ store "s0" (g "x") (cint 0);
        lock "l1" "m";
        store "s1" (g "x") (cint 1);
        unlock "u1" "m";
        store "s2" (g "x") (cint 2) ]
  in
  check_names "before lock" [] (point_at p "s0").must;
  check_names "inside lock" [ "m" ] (point_at p "s1").must;
  check_names "after unlock" [] (point_at p "s2").must;
  (* the Unlock instruction itself still executes holding the lock *)
  check_names "at unlock" [ "m" ] (point_at p "u1").must

let test_lockset_nested () =
  let p =
    prog
      [ lock "l1" "outer";
        lock "l2" "inner";
        store "s1" (g "x") (cint 1);
        unlock "u2" "inner";
        store "s2" (g "x") (cint 2);
        unlock "u1" "outer" ]
  in
  check_names "nested region" [ "inner"; "outer" ] (point_at p "s1").must;
  check_names "after inner unlock" [ "outer" ] (point_at p "s2").must

let test_lockset_reacquire () =
  let p =
    prog
      [ lock "l1" "m";
        store "s1" (g "x") (cint 1);
        unlock "u1" "m";
        lock "l2" "m";
        store "s2" (g "x") (cint 2);
        unlock "u2" "m" ]
  in
  check_names "first region" [ "m" ] (point_at p "s1").must;
  check_names "second region" [ "m" ] (point_at p "s2").must

let test_lockset_branch_merge () =
  (* the lock is taken on one path only: after the merge it is may-held
     but not must-held *)
  let p =
    prog
      [ load "ld" "r" (g "cond");
        branch_if "b" (Eq (reg "r", cint 0)) "merge";
        lock "l1" "m";
        store "s1" (g "x") (cint 1);
        store "merge" (g "x") (cint 2) ]
  in
  check_names "locked path" [ "m" ] (point_at p "s1").must;
  check_names "merge must" [] (point_at p "merge").must;
  check_names "merge may" [ "m" ] (point_at p "merge").may

let test_lockset_unreachable () =
  let p =
    prog
      [ lock "l1" "m";
        return "r1";
        store "dead" (g "x") (cint 1) ]
  in
  (* vacuously guarded: no execution reaches it, and the top element is
     the whole lock universe *)
  check_names "unreachable must = universe" [ "m" ]
    (point_at p "dead").must

let test_lockset_loop () =
  (* a loop body whose lock/unlock is balanced per iteration keeps a
     stable lockset at the head *)
  let p =
    prog
      [ assign "i0" "i" (cint 0);
        lock "head" "m";
        store "s1" (g "x") (cint 1);
        unlock "u1" "m";
        assign "inc" "i" (Add (reg "i", cint 1));
        branch_if "back" (Lt (reg "i", cint 3)) "head";
        store "out" (g "x") (cint 2) ]
  in
  check_names "loop body" [ "m" ] (point_at p "s1").must;
  check_names "after loop" [] (point_at p "out").must

(* --- mhp -------------------------------------------------------------- *)

let spec name ?(instrs = [ nop (name ^ "0") ]) () =
  { Ksim.Program.spec_name = name;
    context = Ksim.Program.Syscall { call = name; sysno = 0 };
    program = Ksim.Program.make ~name instrs;
    resources = [] }

let test_mhp () =
  let group =
    Ksim.Program.group ~name:"mhp"
      ~entries:
        [ ("worker", prog [ nop "w0" ]);
          ("orphan", prog [ nop "o0" ]) ]
      [ spec "init" ();
        spec "A" ~instrs:[ queue_work "A0" "worker" ] ();
        spec "B" () ]
  in
  let m = Analysis.Mhp.of_group ~serial:[ "init" ] group in
  let mhp = Analysis.Mhp.may_happen_in_parallel m in
  checkb "A ∥ B" true (mhp "A" "B");
  checkb "serial init ∦ A" false (mhp "init" "A");
  checkb "a thread never overlaps itself" false (mhp "A" "A");
  checkb "spawned entry ∥ B" true (mhp "worker" "B");
  checkb "entry overlaps itself (re-queue)" true (mhp "worker" "worker");
  checkb "entry overlaps serial too" true (mhp "worker" "init");
  checkb "unreachable entry excluded" true
    (Analysis.Mhp.find m "orphan" = None);
  checkb "unknown names are not parallel" false (mhp "A" "nosuch")

(* --- candidate classification ----------------------------------------- *)

let two_threads a_instrs b_instrs ~locks =
  Ksim.Program.group ~name:"pairs" ~locks
    ~globals:[ ("x", Ksim.Value.Int 0); ("cond", Ksim.Value.Int 0) ]
    [ spec "A" ~instrs:a_instrs (); spec "B" ~instrs:b_instrs () ]

let the_pair (r : Analysis.Candidates.result) =
  match r.pairs with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one pair, got %d" (List.length ps)

let test_classify_guarded () =
  let group =
    two_threads ~locks:[ "m" ]
      [ lock "A1" "m"; store "A2" (g "x") (cint 1); unlock "A3" "m" ]
      [ lock "B1" "m"; store "B2" (g "x") (cint 2); unlock "B3" "m" ]
  in
  let p = the_pair (Analysis.Candidates.analyze group) in
  checkb "guarded" true (p.cls = Analysis.Candidates.Guarded);
  Alcotest.(check (list string)) "witness" [ "m" ] p.witness

let test_classify_ambiguous () =
  let group =
    two_threads ~locks:[ "m" ]
      [ load "A0" "r" (g "cond");
        branch_if "A1" (Eq (reg "r", cint 0)) "A3";
        lock "A2" "m";
        store "A3" (g "x") (cint 1) ]
      [ lock "B1" "m"; store "B2" (g "x") (cint 2); unlock "B3" "m" ]
  in
  let r = Analysis.Candidates.analyze group in
  (* A0 reads cond, B never touches cond; the only conflicting pair is
     A3/B2 on x *)
  let p = the_pair r in
  checkb "ambiguous" true (p.cls = Analysis.Candidates.Ambiguous);
  Alcotest.(check (list string)) "witness" [ "m" ] p.witness

let test_classify_unguarded () =
  let group =
    two_threads ~locks:[]
      [ store "A1" (g "x") (cint 1) ]
      [ store "B1" (g "x") (cint 2) ]
  in
  let p = the_pair (Analysis.Candidates.analyze group) in
  checkb "unguarded" true (p.cls = Analysis.Candidates.Unguarded);
  checkb "no witness" true (p.witness = [])

let test_classify_filters () =
  (* read-read pairs and serial-thread pairs are not candidates *)
  let group =
    two_threads ~locks:[]
      [ load "A1" "r" (g "x") ]
      [ load "B1" "r" (g "x") ]
  in
  checki "read-read excluded" 0
    (List.length (Analysis.Candidates.analyze group).pairs);
  let group =
    two_threads ~locks:[]
      [ store "A1" (g "x") (cint 1) ]
      [ store "B1" (g "x") (cint 2) ]
  in
  checki "serial thread excluded" 0
    (List.length
       (Analysis.Candidates.analyze ~serial:[ "A" ] group).pairs)

(* --- hints and ranks --------------------------------------------------- *)

let test_hints_rank () =
  let group =
    two_threads ~locks:[ "m" ]
      [ lock "A1" "m"; store "A2" (g "x") (cint 1); unlock "A3" "m" ]
      [ lock "B1" "m"; store "B2" (g "x") (cint 2); unlock "B3" "m" ]
  in
  let h = Analysis.Summary.hints (Analysis.Candidates.analyze group) in
  checki "guarded pair ranks prunable" Analysis.Summary.guarded_rank
    (Analysis.Summary.rank h ~a:("A", "A2") ~b:("B", "B2"));
  checki "symmetric" Analysis.Summary.guarded_rank
    (Analysis.Summary.rank h ~a:("B", "B2") ~b:("A", "A2"));
  checkb "classify" true
    (Analysis.Summary.classify h ~a:("A", "A2") ~b:("B", "B2")
    = Some Analysis.Candidates.Guarded);
  checkb "unknown pair below unguarded, above guarded" true
    (let unknown = Analysis.Summary.rank h ~a:("A", "A9") ~b:("B", "B9") in
     unknown > 0 && unknown < Analysis.Summary.guarded_rank)

let test_stats () =
  let group =
    two_threads ~locks:[ "m" ]
      [ lock "A1" "m"; store "A2" (g "x") (cint 1); unlock "A3" "m" ]
      [ store "B1" (g "x") (cint 2) ]
  in
  let s = Analysis.Summary.stats (Analysis.Candidates.analyze group) in
  checki "threads" 2 s.n_threads;
  checki "pairs" 1 s.n_pairs;
  checki "guarded" 0 s.n_guarded;
  checki "unguarded" 1 s.n_unguarded

(* --- report JSON -------------------------------------------------------- *)

let test_json_escaping () =
  Alcotest.(check string)
    "escapes" "a\\\"b\\\\c\\nd\\u0001"
    (Telemetry.Json.escape "a\"b\\c\nd\x01")

let test_json_shape () =
  let group =
    two_threads ~locks:[ "m" ]
      [ lock "A1" "m"; store "A2" (g "x") (cint 1); unlock "A3" "m" ]
      [ store "B1" (g "x") (cint 2) ]
  in
  let s = Analysis.Report_json.to_string (Analysis.Candidates.analyze group) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i =
      i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      checkb (Fmt.str "report contains %s" needle) true (contains needle))
    [ "\"group\":\"pairs\""; "\"must_locks\":[\"m\"]";
      "\"class\":\"unguarded\""; "\"pruning_ratio\"" ]

(* --- LIFS integration --------------------------------------------------- *)

(* A guarded store pair plus an unguarded one: with hints, every
   candidate preemption around the guarded pair is skipped and counted,
   and the search result is unchanged. *)
let test_lifs_static_prune () =
  let group =
    two_threads ~locks:[ "m" ]
      [ lock "A1" "m"; store "A2" (g "x") (cint 1); unlock "A3" "m" ]
      [ lock "B1" "m"; store "B2" (g "x") (cint 2); unlock "B3" "m" ]
  in
  let hints = Analysis.Summary.hints (Analysis.Candidates.analyze group) in
  let search ?static_hints () =
    let vm = Hypervisor.Vm.create group in
    Aitia.Lifs.search ?static_hints ~max_interleavings:2 vm
      ~target:(fun _ -> true) ()
  in
  let plain = search () in
  let hinted = search ~static_hints:hints () in
  checkb "nothing fails either way" true
    (plain.found = None && hinted.found = None);
  checki "no static pruning without hints" 0 plain.stats.static_pruned;
  checkb "guarded candidates skipped" true
    (hinted.stats.static_pruned > 0);
  checkb "hinted explores no more schedules" true
    (hinted.stats.schedules <= plain.stats.schedules)

(* --- lock-order lint ----------------------------------------------------- *)

(* Serial prologue thread names of a case, as the CLI computes them. *)
let serial_names (case : Aitia.Diagnose.case) =
  List.concat_map
    (fun (s : Trace.Slicer.t) ->
      List.map (fun (e : Trace.History.episode) -> e.thread) s.setup)
    (Trace.Slicer.slices case.history)
  |> List.sort_uniq String.compare

let lint_of (bug : Bugs.Bug.t) =
  let case = bug.case () in
  Analysis.Lockorder.analyze ~serial:(serial_names case) case.group

let test_lockorder_abba () =
  let group =
    Ksim.Program.group ~name:"abba" ~locks:[ "a"; "b" ]
      [ spec "A"
          ~instrs:
            [ lock "A1" "a"; lock "A2" "b"; unlock "A3" "b";
              unlock "A4" "a" ]
          ();
        spec "B"
          ~instrs:
            [ lock "B1" "b"; lock "B2" "a"; unlock "B3" "a";
              unlock "B4" "b" ]
          () ]
  in
  let r = Analysis.Lockorder.analyze group in
  checki "two acquisition edges" 2 (List.length r.edges);
  (match r.cycles with
  | [ c ] ->
    Alcotest.(check (slist string compare))
      "cycle locks" [ "a"; "b" ] c.cycle_locks;
    checkb "witness edge per hop" true (List.length c.cycle_edges = 2);
    checkb "both hops must-held" true
      (List.for_all (fun (e : Analysis.Lockorder.edge) -> e.must)
         c.cycle_edges);
    checkb "schedulable (threads overlap)" true c.parallel
  | cs -> Alcotest.failf "expected one cycle, got %d" (List.length cs));
  checki "no inversions" 0 (List.length r.inversions)

let test_lockorder_consistent () =
  (* Both threads take a before b: edges exist, but no cycle. *)
  let group =
    Ksim.Program.group ~name:"consistent" ~locks:[ "a"; "b" ]
      [ spec "A"
          ~instrs:
            [ lock "A1" "a"; lock "A2" "b"; unlock "A3" "b";
              unlock "A4" "a" ]
          ();
        spec "B"
          ~instrs:
            [ lock "B1" "a"; lock "B2" "b"; unlock "B3" "b";
              unlock "B4" "a" ]
          () ]
  in
  let r = Analysis.Lockorder.analyze group in
  checkb "edges recorded" true (r.edges <> []);
  checkb "consistent order has no cycle" true (r.cycles = []);
  checkb "edges all a->b" true
    (List.for_all
       (fun (e : Analysis.Lockorder.edge) ->
         e.held = "a" && e.acquired = "b")
       r.edges)

let test_lockorder_serial_not_parallel () =
  (* The same ABBA pattern with one side serialized: the cycle is still
     in the graph but not schedulable. *)
  let group =
    Ksim.Program.group ~name:"abba-serial" ~locks:[ "a"; "b" ]
      [ spec "A"
          ~instrs:
            [ lock "A1" "a"; lock "A2" "b"; unlock "A3" "b";
              unlock "A4" "a" ]
          ();
        spec "B"
          ~instrs:
            [ lock "B1" "b"; lock "B2" "a"; unlock "B3" "a";
              unlock "B4" "b" ]
          () ]
  in
  let r = Analysis.Lockorder.analyze ~serial:[ "B" ] group in
  match r.cycles with
  | [ c ] -> checkb "cycle not schedulable" false c.parallel
  | cs -> Alcotest.failf "expected one cycle, got %d" (List.length cs)

let test_lint_fig1_clean () =
  let r = lint_of Bugs.Fig1_nullderef.bug in
  let ls = Analysis.Summary.lint_stats r in
  checkb "fig1 is clean" true (Analysis.Summary.clean ls);
  checki "no false cycles" 0 ls.n_cycles;
  checki "no false inversions" 0 ls.n_inversions

let test_lint_ext_lock_flagged () =
  let r = lint_of Bugs.Ext_lock_order.bug in
  let ls = Analysis.Summary.lint_stats r in
  checkb "ext-lock is flagged" false (Analysis.Summary.clean ls);
  match r.inversions with
  | [ v ] ->
    Alcotest.(check string) "serializing lock" "dev_lock" v.inv_lock;
    checkb "publisher and consumer differ" true
      (fst v.publisher <> fst v.consumer)
  | vs -> Alcotest.failf "expected one inversion, got %d" (List.length vs)

let test_lint_json_shape () =
  let s = Analysis.Report_json.lint_to_string (lint_of Bugs.Ext_lock_order.bug) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i =
      i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      checkb (Fmt.str "lint json contains %s" needle) true (contains needle))
    [ "\"cycles\":[]"; "\"inversions\":["; "\"lock\":\"dev_lock\"";
      "\"witness_cycle\":[" ]

(* --- flip feasibility ----------------------------------------------------- *)

let test_flipfeas_prunable () =
  let open Analysis.Flipfeas in
  Alcotest.(check (option string))
    "infeasible prunes" (Some "infeasible: x")
    (prunable (Infeasible "x"));
  Alcotest.(check (option string))
    "preserves-failure prunes"
    (Some "preserves failure: y")
    (prunable (Preserves_failure "y"));
  Alcotest.(check (option string)) "unknown executes" None
    (prunable (Unknown "z"))

let test_flipfeas_identity_plan () =
  (* A plan that replays the failing order verbatim cannot enforce the
     reversed order: Infeasible.  The genuinely reordered plan for the
     same race touches the faulting slice: Unknown (must execute). *)
  let group =
    two_threads ~locks:[]
      [ store "a1" (g "x") (cint 1) ]
      [ load "b1" "v" (g "x") ]
  in
  let plan0 =
    Hypervisor.Schedule.plan
      [ Iid.make ~tid:0 ~label:"a1" ~occ:1;
        Iid.make ~tid:1 ~label:"b1" ~occ:1 ]
  in
  let o =
    Hypervisor.Controller.run
      (Ksim.Machine.create group)
      (Hypervisor.Schedule.plan_policy plan0)
  in
  let r =
    List.find
      (fun (r : Aitia.Race.t) -> r.first.iid.Iid.label = "a1")
      (Aitia.Race.of_trace o.trace)
  in
  let ctx = Analysis.Flipfeas.context o.trace in
  let feas f =
    Analysis.Flipfeas.analyze ctx f ~first:r.first ~second:r.second
  in
  checkb "identity plan is infeasible" true
    (match
       feas { lo = 0; window = [||]; pending = None }
     with
    | Analysis.Flipfeas.Infeasible _ -> true
    | _ -> false);
  checkb "reordering the sliced pair stays unknown" true
    (match feas (Aitia.Causality.flip ctx r) with
    | Analysis.Flipfeas.Unknown _ -> true
    | _ -> false)

let test_flipfeas_nesting_depth () =
  let group =
    two_threads ~locks:[ "o"; "m" ]
      [ lock "A1" "o"; lock "A2" "m"; store "A3" (g "x") (cint 1);
        unlock "A4" "m"; unlock "A5" "o" ]
      [ load "B1" "v" (g "x") ]
  in
  let plan0 =
    Hypervisor.Schedule.plan
      (List.map
         (fun (tid, label) -> Iid.make ~tid ~label ~occ:1)
         [ (0, "A1"); (0, "A2"); (0, "A3"); (0, "A4"); (0, "A5");
           (1, "B1") ])
  in
  let o =
    Hypervisor.Controller.run
      (Ksim.Machine.create group)
      (Hypervisor.Schedule.plan_policy plan0)
  in
  let depth label =
    Analysis.Flipfeas.nesting_depth o.trace
      (Iid.make ~tid:0 ~label ~occ:1)
  in
  checki "store under two locks" 2 (depth "A3");
  checki "outer acquisition counts itself" 1 (depth "A1");
  checki "inner acquisition" 2 (depth "A2");
  checki "after both releases" 0
    (Analysis.Flipfeas.nesting_depth o.trace
       (Iid.make ~tid:1 ~label:"B1" ~occ:1))

(* --- corpus soundness ---------------------------------------------------- *)

(* Every guest instruction [f] steps, read from the controller's own
   counter under a private recorder, so a run that bypasses the VM's
   accounting is still counted. *)
let guest_instrs f =
  let rc = Telemetry.Recorder.create () in
  let r = Telemetry.Probe.with_sink (Telemetry.Recorder.sink rc) f in
  (r, Telemetry.Recorder.counter rc "controller.instructions")

type diagnosed = {
  bug : Bugs.Bug.t;
  case : Aitia.Diagnose.case;
  plain : Aitia.Diagnose.report;
  plain_guest : int;  (** guest instructions the plain diagnosis stepped *)
  hinted : Aitia.Diagnose.report;
}

(* One diagnosis pass per bug, plain and hinted (--prune invariants:
   the lockset hints, the invariant class collapse and the
   flip-feasibility proofs), shared by the corpus tests and the
   causality gate below. *)
let corpus =
  lazy
    (List.map
       (fun (bug : Bugs.Bug.t) ->
         let case = bug.case () in
         let plain, plain_guest =
           guest_instrs (fun () ->
               Aitia.Diagnose.diagnose
                 ?max_interleavings:bug.max_interleavings case)
         in
         let hinted =
           Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
             ~prune:`Invariants case
         in
         { bug; case; plain; plain_guest; hinted })
       Bugs.Registry.all)

(* The 22 real bugs (CVEs, then Syzkaller) in the corpus pass. *)
let real_bugs () =
  List.filter
    (fun d ->
      match d.bug.source with
      | Bugs.Bug.Cve _ | Bugs.Bug.Syzkaller _ -> true
      | Bugs.Bug.Figure _ | Bugs.Bug.Extension _ -> false)
    (Lazy.force corpus)

(* Soundness: every data race LIFS observed dynamically — both endpoints
   executed, no common lock held — must be statically classified
   Unguarded or Ambiguous by the full-group analysis.  (A commonly
   locked pair may legitimately be Guarded: that is the
   critical-section-order case lockset reasoning proves race-free.) *)
let test_soundness (bug : Bugs.Bug.t) (case : Aitia.Diagnose.case)
    (plain : Aitia.Diagnose.report) () =
  match plain.lifs.found with
  | None -> Alcotest.failf "%s did not reproduce" bug.id
  | Some success ->
    let hints =
      Analysis.Summary.hints
        (Analysis.Candidates.analyze ~serial:[] case.group)
    in
    let final = success.outcome.final in
    let site (a : Ksim.Access.t) =
      (Ksim.Machine.thread_base final a.iid.Iid.tid, a.iid.Iid.label)
    in
    List.iter
      (fun (r : Aitia.Race.t) ->
        if
          Aitia.Race.occurred_in success.outcome.trace r
          && not (Aitia.Race.is_cs_order r)
        then
          match
            Analysis.Summary.classify hints ~a:(site r.first)
              ~b:(site r.second)
          with
          | Some Analysis.Candidates.Unguarded
          | Some Analysis.Candidates.Ambiguous -> ()
          | Some Analysis.Candidates.Guarded ->
            Alcotest.failf "%s: race %a classified Guarded" bug.id
              Aitia.Race.pp_short r
          | None ->
            Alcotest.failf "%s: race %a missed by the static analysis"
              bug.id Aitia.Race.pp_short r)
      success.races

(* Chain and reproduction parity between the plain and hinted
   pipelines is test_parity's prune axis; the gate below records it for
   the 22 real bugs. *)
let chain_str (r : Aitia.Diagnose.report) =
  match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"

(* Bookkeeping of the flip-feasibility pruning: the stat equals the
   number of pruned entries, a pruned flip never ran (no run verdict,
   not enforced, Benign), and the plain pipeline never prunes. *)
let test_pruning_consistency (bug : Bugs.Bug.t)
    (plain : Aitia.Diagnose.report) (hinted : Aitia.Diagnose.report) () =
  (match plain.causality with
  | None -> ()
  | Some ca ->
    checki (bug.id ^ " plain never prunes") 0
      ca.stats.flips_statically_pruned;
    checkb (bug.id ^ " plain entries all executed") true
      (List.for_all
         (fun (t : Aitia.Causality.tested) ->
           t.pruned = None && t.flip_verdict <> None)
         ca.tested));
  match hinted.causality with
  | None -> ()
  | Some ca ->
    let pruned =
      List.filter
        (fun (t : Aitia.Causality.tested) -> t.pruned <> None)
        ca.tested
    in
    checki (bug.id ^ " stat counts pruned entries")
      (List.length pruned) ca.stats.flips_statically_pruned;
    List.iter
      (fun (t : Aitia.Causality.tested) ->
        checkb (bug.id ^ " pruned flip never ran") true
          (t.flip_verdict = None);
        checkb (bug.id ^ " pruned flip not enforced") false t.enforced;
        checkb (bug.id ^ " pruned flip is Benign") true
          (t.verdict = Aitia.Causality.Benign))
      pruned

(* In aggregate the hints must pay for themselves: on the 22 real-world
   bugs, at least half reproduce with strictly fewer schedules. *)
let test_hinted_aggregate () =
  let real = real_bugs () in
  let improved =
    List.length
      (List.filter
         (fun d ->
           d.hinted.lifs.stats.schedules < d.plain.lifs.stats.schedules)
         real)
  in
  checkb
    (Fmt.str "%d of %d bugs explore strictly fewer schedules" improved
       (List.length real))
    true
    (2 * improved >= List.length real)

(* And the flip-feasibility pruning must pay for itself too: on the 22
   real-world bugs, at least 10 execute strictly fewer flips than the
   plain Causality Analysis runs. *)
let test_pruning_aggregate () =
  let real = real_bugs () in
  let flips (ca : Aitia.Causality.result option) =
    match ca with
    | None -> 0
    | Some ca ->
      List.length
        (List.filter
           (fun (t : Aitia.Causality.tested) -> t.pruned = None)
           ca.tested)
  in
  let improved =
    List.length
      (List.filter
         (fun d ->
           d.plain.causality <> None && d.hinted.causality <> None
           && flips d.hinted.causality < flips d.plain.causality)
         real)
  in
  checkb
    (Fmt.str "%d of %d bugs execute strictly fewer flips" improved
       (List.length real))
    true (improved >= 10)

(* One failing-trace context serves every flip of the analysis: after
   all the flips before it have used it, it must still give the flip
   plan and verdict of a context built fresh for that flip. *)
let test_shared_context (bug : Bugs.Bug.t) (plain : Aitia.Diagnose.report)
    () =
  match plain.lifs.found with
  | None -> Alcotest.failf "%s did not reproduce" bug.id
  | Some success ->
    let trace = success.outcome.trace in
    let shared = Analysis.Flipfeas.context trace in
    List.iter
      (fun (r : Aitia.Race.t) ->
        let fresh = Analysis.Flipfeas.context trace in
        let plan ctx = (Aitia.Causality.flip_plan ctx r).events in
        let verdict ctx =
          Analysis.Flipfeas.analyze ctx (Aitia.Causality.flip ctx r)
            ~first:r.first ~second:r.second
        in
        let name what = Fmt.str "%s %a: %s" bug.id Aitia.Race.pp_short r what in
        checkb (name "same plan") true
          (List.equal Iid.equal (plan shared) (plan fresh));
        checkb (name "same verdict") true (verdict shared = verdict fresh))
      success.races

(* --- the causality counter gate -------------------------------------- *)

(* The counters of BENCH_causality.json, rebuilt for the 22 real bugs
   from the plain pass above plus two diagnoses per bug: --prune
   invariants --order gain, and default flags on the reference engine.
   Every column is deterministic for a fixed build.  The fresh rows are
   written to causality_fresh.json in the working directory
   (_build/default/test under `dune test'), so a deliberate change to
   the numbers is re-baselined with a copy:

     cp _build/default/test/causality_fresh.json BENCH_causality.json

   The rules are Telemetry.Gate's: no number may exceed its baseline by
   more than 2%, a baseline [true] stays [true], a baseline row or
   column missing from the fresh rows fails, and every [*_identical]
   column must be [true]. *)
let baseline_file =
  (* the repo root under `dune exec', its build copy under `dune test' *)
  let here = "BENCH_causality.json" in
  if Sys.file_exists here then here
  else Filename.concat Filename.parent_dir_name here

let fresh_file = "causality_fresh.json"

(* One bug's row, with whether the reference engine reported the
   plain chain; [None] if either pipeline found no failure. *)
let causality_row { bug; plain; plain_guest; _ } =
  let diagnose =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
  in
  let inv, inv_instrs =
    guest_instrs (fun () ->
        diagnose ~prune:`Invariants ~order:`Gain (bug.case ()))
  in
  let reference = diagnose ~engine:Ksim.Engine.Reference (bug.case ()) in
  match (plain.causality, inv.causality) with
  | Some pca, Some ica ->
    let executed =
      List.length
        (List.filter
           (fun (t : Aitia.Causality.tested) -> t.pruned = None)
           ica.tested)
    in
    let inv_chain = String.equal (chain_str plain) (chain_str inv) in
    let eng_chain = String.equal (chain_str plain) (chain_str reference) in
    (* executed schedules, LIFS + Causality Analysis: --prune
       invariants must never cost more than --prune none, in schedules
       or in guest instructions *)
    let plain_total = plain.lifs.stats.schedules + pca.stats.schedules in
    let inv_total = inv.lifs.stats.schedules + ica.stats.schedules in
    let open Telemetry.Json in
    Some
      ( eng_chain,
        obj
          [ ("bug", str bug.id);
            ("flips", int (List.length ica.tested));
            ("flips_executed", int executed);
            ("flips_pruned", int ica.stats.flips_statically_pruned);
            ("plain_ca_schedules", int pca.stats.schedules);
            ("plain_ca_simulated", float pca.stats.simulated);
            ("plain_lifs_schedules", int plain.lifs.stats.schedules);
            ("plain_lifs_simulated", float plain.lifs.stats.simulated);
            ("plain_instrs",
             int
               (plain.lifs.stats.executed_instrs
               + pca.stats.executed_instrs));
            ("inv_lifs_schedules", int inv.lifs.stats.schedules);
            ("inv_ca_schedules", int ica.stats.schedules);
            ("inv_executed_schedules", int inv_total);
            ("inv_instrs", int inv_instrs);
            ("invariant_pruned", int inv.lifs.stats.invariant_pruned);
            ("gain_reorderings", int inv.lifs.stats.gain_reorderings);
            ("inv_chain_identical", bool inv_chain);
            ("inv_le_plain",
             bool (inv_total <= plain_total && inv_instrs <= plain_guest));
            ("engine_chain_identical", bool eng_chain) ] )
  | _ -> None

(* The gate's verdicts.  The fresh rows are written, then read back and
   compared, so a failing run leaves behind exactly what it gated. *)
let causality_gate =
  lazy
    (let rows = List.filter_map causality_row (real_bugs ()) in
     let engine =
       Telemetry.Json.(
         obj
           [ ("bug", str "_engine");
             ("engine_chains_identical", bool (List.for_all fst rows)) ])
     in
     Out_channel.with_open_text fresh_file (fun oc ->
         Out_channel.output_string oc
           Telemetry.Json.(
             obj [ ("causality", arr (List.map snd rows @ [ engine ])) ]
             ^ "\n"));
     let read file =
       match
         Telemetry.Json.of_string
           (In_channel.with_open_text file In_channel.input_all)
       with
       | Ok doc -> doc
       | Error e -> failwith (file ^ ": " ^ e)
     in
     let baseline = read baseline_file and fresh = read fresh_file in
     [ Telemetry.Gate.compare_docs ~baseline ~fresh ();
       Telemetry.Gate.check_identical
         (Option.value ~default:[]
            (Option.bind (Telemetry.Json.member "causality" fresh)
               Telemetry.Json.to_list)) ])

let test_causality_gate () =
  match
    List.concat_map
      (fun (v : Telemetry.Gate.verdict) -> v.violations)
      (Lazy.force causality_gate)
  with
  | [] -> ()
  | violations ->
    Alcotest.failf "causality gate against %s:@.  %a" baseline_file
      Fmt.(list ~sep:(any "@.  ") string)
      violations

let corpus_cases () =
  List.concat_map
    (fun { bug; case; plain; hinted; _ } ->
      [ Alcotest.test_case
          (bug.Bugs.Bug.id ^ " soundness") `Quick
          (test_soundness bug case plain);
        Alcotest.test_case
          (bug.Bugs.Bug.id ^ " pruning consistency") `Quick
          (test_pruning_consistency bug plain hinted);
        Alcotest.test_case
          (bug.Bugs.Bug.id ^ " shared flip context") `Quick
          (test_shared_context bug plain) ])
    (Lazy.force corpus)

let () =
  let corpus = corpus_cases () in
  Fmt.pr "causality gate: %d check(s) against %s, fresh rows in %s@."
    (List.fold_left
       (fun n (v : Telemetry.Gate.verdict) -> n + v.checked)
       0 (Lazy.force causality_gate))
    baseline_file fresh_file;
  Alcotest.run "analysis"
    [ ( "absaddr",
        [ Alcotest.test_case "of_instr" `Quick test_absaddr_of_instr;
          Alcotest.test_case "aliasing" `Quick test_absaddr_alias ] );
      ( "lockset",
        [ Alcotest.test_case "straight line" `Quick
            test_lockset_straight_line;
          Alcotest.test_case "nested" `Quick test_lockset_nested;
          Alcotest.test_case "re-acquire" `Quick test_lockset_reacquire;
          Alcotest.test_case "branch merge" `Quick
            test_lockset_branch_merge;
          Alcotest.test_case "unreachable" `Quick test_lockset_unreachable;
          Alcotest.test_case "loop" `Quick test_lockset_loop ] );
      ("mhp", [ Alcotest.test_case "relation" `Quick test_mhp ]);
      ( "candidates",
        [ Alcotest.test_case "guarded" `Quick test_classify_guarded;
          Alcotest.test_case "ambiguous" `Quick test_classify_ambiguous;
          Alcotest.test_case "unguarded" `Quick test_classify_unguarded;
          Alcotest.test_case "filters" `Quick test_classify_filters ] );
      ( "summary",
        [ Alcotest.test_case "hints and ranks" `Quick test_hints_rank;
          Alcotest.test_case "stats" `Quick test_stats ] );
      ( "json",
        [ Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "shape" `Quick test_json_shape ] );
      ( "lifs",
        [ Alcotest.test_case "static pruning" `Quick
            test_lifs_static_prune ] );
      ( "lockorder",
        [ Alcotest.test_case "ABBA cycle" `Quick test_lockorder_abba;
          Alcotest.test_case "consistent order" `Quick
            test_lockorder_consistent;
          Alcotest.test_case "serial not schedulable" `Quick
            test_lockorder_serial_not_parallel;
          Alcotest.test_case "fig1 clean" `Quick test_lint_fig1_clean;
          Alcotest.test_case "ext-lock flagged" `Quick
            test_lint_ext_lock_flagged;
          Alcotest.test_case "lint json shape" `Quick
            test_lint_json_shape ] );
      ( "flipfeas",
        [ Alcotest.test_case "prunable mapping" `Quick
            test_flipfeas_prunable;
          Alcotest.test_case "identity plan" `Quick
            test_flipfeas_identity_plan;
          Alcotest.test_case "nesting depth" `Quick
            test_flipfeas_nesting_depth ] );
      ("corpus", corpus);
      ( "causality gate",
        [ Alcotest.test_case "BENCH_causality.json counters" `Quick
            test_causality_gate ] );
      ( "aggregate",
        [ Alcotest.test_case "hints pay off on half the corpus" `Quick
            test_hinted_aggregate;
          Alcotest.test_case "pruning pays off on 10+ bugs" `Quick
            test_pruning_aggregate ] ) ]
