(* Unit tests for the kernel-simulator substrate. *)

open Ksim
open Ksim.Program.Build

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- helpers ----------------------------------------------------------- *)

let thread name instrs =
  { Program.spec_name = name;
    context = Program.Syscall { call = name; sysno = 0 };
    program = Program.make ~name instrs;
    resources = [] }

let group ?entries ?globals ?locks threads =
  Program.group ?entries ?globals ?locks ~name:"test" threads

(* Run thread [tid] to completion (or failure/block), returning machine +
   events. *)
let run_thread m tid =
  let rec go m acc =
    match Machine.step m tid with
    | Ok (m, e) -> go m (e :: acc)
    | Error _ -> (m, List.rev acc)
  in
  go m []

let run_all m =
  let rec go m acc =
    match Machine.runnable m with
    | [] -> (Machine.check_leaks m, List.rev acc)
    | tid :: _ -> (
      match Machine.step m tid with
      | Ok (m, e) -> go m (e :: acc)
      | Error _ -> (m, List.rev acc))
  in
  go m []

(* --- value ------------------------------------------------------------- *)

let test_value_truthy () =
  checkb "null falsy" false (Value.truthy Value.Null);
  checkb "zero falsy" false (Value.truthy (Value.Int 0));
  checkb "int truthy" true (Value.truthy (Value.Int 3));
  checkb "neg truthy" true (Value.truthy (Value.Int (-1)));
  checkb "ptr truthy" true (Value.truthy (Value.ptr ~obj:0 ~gen:0));
  checkb "list truthy" true (Value.truthy (Value.List []))

let test_value_equal () =
  checkb "null = 0" true (Value.equal Value.Null (Value.Int 0));
  checkb "0 = null" true (Value.equal (Value.Int 0) Value.Null);
  checkb "ints" true (Value.equal (Value.Int 7) (Value.Int 7));
  checkb "ptr vs int" false
    (Value.equal (Value.ptr ~obj:1 ~gen:0) (Value.Int 1));
  checkb "same ptr" true
    (Value.equal (Value.ptr ~obj:1 ~gen:0) (Value.ptr ~obj:1 ~gen:0));
  checkb "diff obj" false
    (Value.equal (Value.ptr ~obj:1 ~gen:0) (Value.ptr ~obj:2 ~gen:0));
  checkb "lists" true
    (Value.equal
       (Value.List [ { Value.obj = 1; gen = 0 } ])
       (Value.List [ { Value.obj = 1; gen = 0 } ]))

let test_value_is_null () =
  checkb "null" true (Value.is_null Value.Null);
  checkb "zero" true (Value.is_null (Value.Int 0));
  checkb "one" false (Value.is_null (Value.Int 1))

(* --- addr -------------------------------------------------------------- *)

let test_addr_overlap () =
  let f = Addr.Field (3, "x") in
  let g = Addr.Global "g" in
  checkb "equal overlaps" true (Addr.overlaps f f);
  checkb "whole/field" true (Addr.overlaps (Addr.Whole 3) f);
  checkb "field/whole" true (Addr.overlaps f (Addr.Whole 3));
  checkb "whole/index" true (Addr.overlaps (Addr.Whole 3) (Addr.Index (3, 0)));
  checkb "diff obj" false (Addr.overlaps (Addr.Whole 4) f);
  checkb "global/whole" false (Addr.overlaps g (Addr.Whole 3));
  checkb "diff fields" false (Addr.overlaps f (Addr.Field (3, "y")))

let test_addr_compare () =
  let xs =
    [ Addr.Global "b"; Addr.Field (1, "a"); Addr.Whole 0; Addr.Global "a";
      Addr.Index (1, 2) ]
  in
  let sorted = List.sort Addr.compare xs in
  checki "stable size" 5 (List.length sorted);
  checkb "total order" true
    (List.for_all2 (fun a b -> Addr.compare a b = 0) sorted sorted);
  (* Map round-trip *)
  let m =
    List.fold_left (fun m a -> Addr.Map.add a () m) Addr.Map.empty xs
  in
  checki "map size" 5 (Addr.Map.cardinal m)

(* --- program ----------------------------------------------------------- *)

let test_program_labels () =
  let p =
    Program.make ~name:"p"
      [ nop "a"; goto "b" "c"; nop "c"; return "d" ]
  in
  checki "length" 4 (Program.length p);
  checki "pos of c" 2 (Program.position_of_label p "c");
  check (Alcotest.list Alcotest.string) "labels" [ "a"; "b"; "c"; "d" ]
    (Program.labels p)

let test_program_duplicate_label () =
  Alcotest.check_raises "duplicate" (Program.Duplicate_label "x") (fun () ->
      ignore (Program.make ~name:"p" [ nop "x"; nop "x" ]))

let test_program_dangling_goto () =
  Alcotest.check_raises "dangling" (Program.Unknown_label "nowhere")
    (fun () -> ignore (Program.make ~name:"p" [ goto "a" "nowhere" ]))

(* --- machine: basics ---------------------------------------------------- *)

let test_assign_branch () =
  let t =
    thread "A"
      [ assign "i0" "x" (cint 5);
        branch_if "i1" (Gt (reg "x", cint 3)) "skip";
        assign "i2" "x" (cint 0);
        assign "skip" "y" (Add (reg "x", cint 1)) ]
  in
  let m = Machine.create (group [ t ]) in
  let m, events = run_thread m 0 in
  checki "events" 3 (List.length events);
  checkb "x kept" true (Machine.reg m 0 "x" = Some (Value.Int 5));
  checkb "y = 6" true (Machine.reg m 0 "y" = Some (Value.Int 6))

let test_load_store_defaults () =
  let t =
    thread "A"
      [ load "l" "a" (g "uninitialized");
        store "s" (g "other") (cint 9);
        load "l2" "b" (g "other") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  checkb "zero default" true (Machine.reg m 0 "a" = Some (Value.Int 0));
  checkb "stored" true (Machine.reg m 0 "b" = Some (Value.Int 9))

let test_globals_initialized () =
  let t = thread "A" [ load "l" "x" (g "flag") ] in
  let m =
    Machine.create (group ~globals:[ ("flag", Value.Int 42) ] [ t ])
  in
  let m, _ = run_thread m 0 in
  checkb "init" true (Machine.reg m 0 "x" = Some (Value.Int 42))

let test_null_dereference () =
  let t = thread "A" [ load "l" "x" (Deref (cnull, "f")) ] in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.Null_dereference { at }) ->
    check Alcotest.string "at" "l" at.label
  | _ -> Alcotest.fail "expected null deref"

let test_gpf_on_int_deref () =
  let t =
    thread "A"
      [ assign "a" "p" (cint 0xdead); store "s" (reg "p" **-> "f") (cint 1) ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.General_protection_fault _) -> ()
  | _ -> Alcotest.fail "expected GPF"

let test_alloc_fields_and_uaf () =
  let t =
    thread "A"
      [ alloc "a" "p" "obj" ~fields:[ ("v", cint 7) ];
        load "l" "x" (reg "p" **-> "v");
        free "f" (reg "p");
        load "l2" "y" (reg "p" **-> "v") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  (match Machine.failed m with
  | Some (Failure.Use_after_free { at; freed_at = Some fa; _ }) ->
    check Alcotest.string "fault" "l2" at.label;
    check Alcotest.string "freed at" "f" fa.label
  | _ -> Alcotest.fail "expected UAF");
  checkb "field read ok before free" true
    (Machine.reg m 0 "x" = Some (Value.Int 7))

let test_double_free () =
  let t =
    thread "A"
      [ alloc "a" "p" "obj"; free "f1" (reg "p"); free "f2" (reg "p") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.Double_free _) -> ()
  | _ -> Alcotest.fail "expected double free"

let test_free_null_is_noop () =
  let t = thread "A" [ free "f" cnull; assign "a" "x" (cint 1) ] in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  checkb "no failure" true (Machine.failed m = None);
  checkb "continued" true (Machine.reg m 0 "x" = Some (Value.Int 1))

let test_out_of_bounds () =
  let t =
    thread "A"
      [ alloc "a" "p" "arr" ~slots:3;
        store "s" (reg "p" **@ cint 2) (cint 1);
        store "s2" (reg "p" **@ cint 3) (cint 1) ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.Out_of_bounds { index = 3; size = 3; _ }) -> ()
  | _ -> Alcotest.fail "expected OOB at 3"

let test_bug_on_and_warn_on () =
  let t1 = thread "A" [ bug_on "b" (cint 1) ] in
  let m, _ = run_thread (Machine.create (group [ t1 ])) 0 in
  (match Machine.failed m with
  | Some (Failure.Assertion_violation _) -> ()
  | _ -> Alcotest.fail "expected BUG_ON");
  let t2 = thread "A" [ warn_on "w" (cint 1) ] in
  let m, _ = run_thread (Machine.create (group [ t2 ])) 0 in
  (match Machine.failed m with
  | Some (Failure.Warning _) -> ()
  | _ -> Alcotest.fail "expected WARNING");
  let t3 = thread "A" [ bug_on "b" (cint 0); warn_on "w" (cint 0) ] in
  let m, _ = run_thread (Machine.create (group [ t3 ])) 0 in
  checkb "no failure" true (Machine.failed m = None)

(* --- machine: locks ------------------------------------------------------ *)

let test_lock_mutual_exclusion () =
  let ta = thread "A" [ lock "l1" "mu"; nop "n"; unlock "u1" "mu" ] in
  let tb = thread "B" [ lock "l2" "mu"; unlock "u2" "mu" ] in
  let m = Machine.create (group ~locks:[ "mu" ] [ ta; tb ]) in
  (* A acquires. *)
  let m, e =
    match Machine.step m 0 with Ok x -> x | Error _ -> Alcotest.fail "step"
  in
  checkb "acquire event" true (e.lock_op = Some ("mu", `Acquire));
  checkb "holder" true (Machine.lock_holder m "mu" = Some 0);
  (* B blocks. *)
  checkb "B blocked" true (Machine.blocked_on m 1 = Some "mu");
  checkb "B not runnable" false (List.mem 1 (Machine.runnable m));
  (match Machine.step m 1 with
  | Error (Machine.Blocked_on_lock "mu") -> ()
  | _ -> Alcotest.fail "expected blocked");
  (* A releases; B proceeds. *)
  let m, _ = run_thread m 0 in
  checkb "released" true (Machine.lock_holder m "mu" = None);
  checkb "B runnable" true (List.mem 1 (Machine.runnable m));
  let m, _ = run_thread m 1 in
  checkb "B done" true (Machine.is_done m 1)

let test_lock_self_deadlock () =
  let t = thread "A" [ lock "l1" "mu"; lock "l2" "mu" ] in
  let m = Machine.create (group ~locks:[ "mu" ] [ t ]) in
  let m, _ = run_thread m 0 in
  checkb "blocked on own lock" true (Machine.blocked_on m 0 = Some "mu");
  checkb "not runnable" true (Machine.runnable m = [])

let test_unlock_not_held_is_model_error () =
  let t = thread "A" [ unlock "u" "mu" ] in
  let m = Machine.create (group ~locks:[ "mu" ] [ t ]) in
  (match Machine.step m 0 with
  | exception Machine.Model_error _ -> ()
  | _ -> Alcotest.fail "expected model error")

(* --- machine: background threads ---------------------------------------- *)

let test_queue_work_spawns () =
  let worker = ("w", Program.make ~name:"w" [ store "k" (g "done_") (reg "arg") ]) in
  let t =
    thread "A" [ assign "a" "v" (cint 5); queue_work "q" "w" ~arg:(reg "v") ]
  in
  let m = Machine.create (group ~entries:[ worker ] [ t ]) in
  let m, events = run_thread m 0 in
  let spawned =
    List.concat_map (fun (e : Machine.event) -> e.spawned) events
  in
  checki "one spawn" 1 (List.length spawned);
  let tid, entry = List.hd spawned in
  check Alcotest.string "entry" "w" entry;
  checkb "context" true (Machine.thread_context m tid = Program.Kworker);
  checkb "base" true (Machine.thread_base m tid = "w");
  checkb "parent" true (Machine.thread_parent m tid = Some 0);
  (* The worker received the argument. *)
  let m, _ = run_thread m tid in
  checkb "arg delivered" true
    (Machine.mem_read m (Addr.Global "done_") = Value.Int 5)

let test_enable_irq_spawns_hardirq () =
  let handler = ("h", Program.make ~name:"h" [ store "i1" (g "hit") (reg "arg") ]) in
  let t =
    thread "A" [ assign "a" "v" (cint 9); i "e" (Instr.Enable_irq { entry = "h"; arg = Reg "v" }) ]
  in
  let m = Machine.create (group ~entries:[ handler ] [ t ]) in
  let m, events = run_thread m 0 in
  let spawned =
    List.concat_map (fun (e : Machine.event) -> e.spawned) events
  in
  checki "one handler" 1 (List.length spawned);
  let tid, _ = List.hd spawned in
  checkb "hardirq context" true (Machine.thread_context m tid = Program.Hardirq);
  checkb "not started yet" false (Machine.has_started m tid);
  let m, _ = run_thread m tid in
  checkb "started" true (Machine.has_started m tid);
  checkb "arg delivered" true
    (Machine.mem_read m (Addr.Global "hit") = Value.Int 9)

let test_rcu_and_timer_contexts () =
  let cb = ("cb", Program.make ~name:"cb" [ nop "n" ]) in
  let t = thread "A" [ call_rcu "r" "cb"; arm_timer "t" "cb" ] in
  let m = Machine.create (group ~entries:[ cb ] [ t ]) in
  let m, events = run_thread m 0 in
  let spawned =
    List.concat_map (fun (e : Machine.event) -> e.spawned) events
  in
  checki "two spawns" 2 (List.length spawned);
  let contexts = List.map (fun (tid, _) -> Machine.thread_context m tid) spawned in
  checkb "rcu" true (List.mem Program.Rcu_softirq contexts);
  checkb "timer" true (List.mem Program.Timer_softirq contexts)

(* --- machine: lists ------------------------------------------------------ *)

let test_list_ops () =
  let t =
    thread "A"
      [ alloc "a" "p" "obj";
        list_empty "e1" "was_empty" (g "lst");
        list_add "ad" (g "lst") (reg "p");
        list_contains "c" "has" (g "lst") (reg "p");
        list_first "f" "head" (g "lst");
        list_empty "e2" "now_empty" (g "lst");
        list_del "d" (g "lst") (reg "p");
        list_empty "e3" "after_del" (g "lst") ]
  in
  let m = Machine.create (group ~globals:[ ("lst", Value.List []) ] [ t ]) in
  let m, _ = run_thread m 0 in
  checkb "no failure" true (Machine.failed m = None);
  checkb "was empty" true (Machine.reg m 0 "was_empty" = Some (Value.Int 1));
  checkb "contains" true (Machine.reg m 0 "has" = Some (Value.Int 1));
  checkb "not empty" true (Machine.reg m 0 "now_empty" = Some (Value.Int 0));
  checkb "head is p" true
    (match Machine.reg m 0 "head", Machine.reg m 0 "p" with
    | Some h, Some p -> Value.equal h p
    | _ -> false);
  checkb "after del empty" true
    (Machine.reg m 0 "after_del" = Some (Value.Int 1))

let test_list_double_add_corruption () =
  let t =
    thread "A"
      [ alloc "a" "p" "obj";
        list_add "a1" (g "lst") (reg "p");
        list_add "a2" (g "lst") (reg "p") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.List_corruption { at; _ }) ->
    check Alcotest.string "at" "a2" at.label
  | _ -> Alcotest.fail "expected list corruption"

let test_list_del_missing_corruption () =
  let t =
    thread "A" [ alloc "a" "p" "obj"; list_del "d" (g "lst") (reg "p") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.List_corruption _) -> ()
  | _ -> Alcotest.fail "expected list corruption"

(* --- machine: rmw / refcount -------------------------------------------- *)

let test_rmw () =
  let t =
    thread "A"
      [ store "s" (g "ctr") (cint 10);
        rmw "r1" ~ret:"old" (g "ctr") (cint 5);
        load "l" "now" (g "ctr") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  checkb "old" true (Machine.reg m 0 "old" = Some (Value.Int 10));
  checkb "now" true (Machine.reg m 0 "now" = Some (Value.Int 15))

let test_refcount_lifecycle () =
  let t =
    thread "A"
      [ store "s" (g "rc") (cint 1);
        ref_get "g1" (g "rc");
        ref_put "p1" ~ret:"r1" (g "rc");
        ref_put "p2" ~ret:"r2" (g "rc") ]
  in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  checkb "no failure" true (Machine.failed m = None);
  checkb "r1 = 1" true (Machine.reg m 0 "r1" = Some (Value.Int 1));
  checkb "r2 = 0" true (Machine.reg m 0 "r2" = Some (Value.Int 0))

let test_refcount_underflow_warns () =
  let t = thread "A" [ ref_put "p" (g "rc") ] in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.Warning _) -> ()
  | _ -> Alcotest.fail "expected refcount warning"

let test_refcount_inc_on_zero_warns () =
  let t = thread "A" [ ref_get "g1" (g "rc") ] in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_thread m 0 in
  match Machine.failed m with
  | Some (Failure.Warning _) -> ()
  | _ -> Alcotest.fail "expected refcount warning"

(* --- machine: misc -------------------------------------------------------- *)

let test_occurrences_in_loop () =
  let t =
    thread "A"
      [ assign "i" "n" (cint 0);
        assign "top" "n" (Add (reg "n", cint 1));
        store "w" (g "x") (reg "n");
        branch_if "br" (Lt (reg "n", cint 3)) "top" ]
  in
  let m = Machine.create (group [ t ]) in
  let m, events = run_thread m 0 in
  checki "w executed thrice" 3 (Machine.occurrences m 0 "w");
  let occs =
    List.filter_map
      (fun (e : Machine.event) ->
        if e.iid.label = "w" then Some e.iid.occ else None)
      events
  in
  check (Alcotest.list Alcotest.int) "occ numbering" [ 1; 2; 3 ] occs

let test_leak_detection () =
  let t = thread "A" [ alloc "a" "p" "obj" ~leak_check:true ] in
  let m = Machine.create (group [ t ]) in
  let m, _ = run_all m in
  (match Machine.failed m with
  | Some (Failure.Memory_leak { objs = [ (_, "obj") ] }) -> ()
  | _ -> Alcotest.fail "expected leak");
  (* freed objects do not leak *)
  let t2 =
    thread "A" [ alloc "a" "p" "obj" ~leak_check:true; free "f" (reg "p") ]
  in
  let m, _ = run_all (Machine.create (group [ t2 ])) in
  checkb "no leak" true (Machine.failed m = None)

let test_persistence_snapshot () =
  let t = thread "A" [ store "s" (g "x") (cint 1) ] in
  let m0 = Machine.create (group [ t ]) in
  let m1, _ = run_thread m0 0 in
  (* The old machine value is an untouched snapshot. *)
  checkb "snapshot unchanged" true
    (Machine.mem_read m0 (Addr.Global "x") = Value.Int 0);
  checkb "new machine updated" true
    (Machine.mem_read m1 (Addr.Global "x") = Value.Int 1)

let test_failure_same_bug () =
  let iid l = Access.Iid.make ~tid:0 ~label:l ~occ:1 in
  let uaf1 =
    Failure.Use_after_free
      { at = iid "A2"; obj = 1; tag = "x"; kind = Instr.Read;
        freed_at = None }
  in
  let uaf2 =
    Failure.Use_after_free
      { at = iid "A2"; obj = 9; tag = "y"; kind = Instr.Write;
        freed_at = Some (iid "K1") }
  in
  checkb "same symptom + label" true (Failure.same_bug uaf1 uaf2);
  let uaf3 =
    Failure.Use_after_free
      { at = iid "B7"; obj = 1; tag = "x"; kind = Instr.Read;
        freed_at = None }
  in
  checkb "different label" false (Failure.same_bug uaf1 uaf3);
  let bug = Failure.Assertion_violation { at = iid "A2" } in
  checkb "different symptom" false (Failure.same_bug uaf1 bug);
  let leak1 = Failure.Memory_leak { objs = [ (1, "a") ] } in
  let leak2 = Failure.Memory_leak { objs = [ (2, "b") ] } in
  checkb "location-free failures" true (Failure.same_bug leak1 leak2)

let test_failure_printing () =
  let iid l = Access.Iid.make ~tid:3 ~label:l ~occ:2 in
  List.iter
    (fun f -> checkb "non-empty" true (String.length (Failure.to_string f) > 5))
    [ Failure.Null_dereference { at = iid "x" };
      Failure.Out_of_bounds { at = iid "x"; obj = 1; tag = "t"; index = 9;
                              size = 4 };
      Failure.Double_free { at = iid "x"; obj = 1; tag = "t" };
      Failure.Invalid_free { at = iid "x" };
      Failure.Warning { at = iid "x" };
      Failure.General_protection_fault { at = iid "x" };
      Failure.List_corruption { at = iid "x"; reason = "r" };
      Failure.Memory_leak { objs = [ (1, "t") ] };
      Failure.Watchdog { after_steps = 10 } ]

let test_kcov_coverage () =
  let ta = thread "A" [ nop "a1"; nop "a2"; nop "a3" ] in
  let tb = thread "B" [ nop "b1" ] in
  let m = Machine.create (group [ ta; tb ]) in
  let m, ea = run_thread m 0 in
  let m, eb = run_thread m 1 in
  let cov =
    Kcov.coverage [ ea @ eb ] ~thread_base:(Machine.thread_base m)
  in
  let module Smap = Map.Make (String) in
  checki "A covers 3 labels" 3 (Smap.find "A" cov);
  checki "B covers 1 label" 1 (Smap.find "B" cov)

let test_kcov_db () =
  let ta = thread "A" [ store "s" (g "x") (cint 1) ] in
  let tb = thread "B" [ load "l" "v" (g "x") ] in
  let m = Machine.create (group [ ta; tb ]) in
  let m, ea = run_thread m 0 in
  let m, eb = run_thread m 1 in
  let thread_base tid = Machine.thread_base m tid in
  let db = Kcov.create () in
  Kcov.add_trace ~thread_base db (ea @ eb);
  checki "two sites" 2 (List.length (Kcov.sites db));
  checkb "conflict for A:s" true
    (Kcov.has_conflict db
       ~site:{ Kcov.site_thread = "A"; site_label = "s" }
       ~addr:(Addr.Global "x") ~kind:Instr.Write);
  checkb "read/read no conflict" false
    (Kcov.has_conflict db
       ~site:{ Kcov.site_thread = "B"; site_label = "l" }
       ~addr:(Addr.Global "y") ~kind:Instr.Read)

(* The database learns only what is new: re-learning the same accesses
   in another order changes nothing, and an address's accessors stay
   oldest first. *)
let test_kcov_learns_only_new () =
  let ta = thread "A" [ store "s" (g "x") (cint 1); store "t" (g "y") (cint 2) ] in
  let tb = thread "B" [ load "l" "v" (g "x") ] in
  let m = Machine.create (group [ ta; tb ]) in
  let m, ea = run_thread m 0 in
  let m, eb = run_thread m 1 in
  let thread_base tid = Machine.thread_base m tid in
  let db = Kcov.create () in
  Kcov.add_trace ~thread_base db (ea @ eb);
  let site t l = { Kcov.site_thread = t; site_label = l } in
  let x_accessors = [ (site "A" "s", Instr.Write); (site "B" "l", Instr.Read) ] in
  checkb "x: oldest first" true (Kcov.accessors db (Addr.Global "x") = x_accessors);
  Kcov.add_trace ~thread_base db (eb @ ea);
  checkb "x: unchanged" true (Kcov.accessors db (Addr.Global "x") = x_accessors);
  checkb "y: one accessor" true
    (Kcov.accessors db (Addr.Global "y") = [ (site "A" "t", Instr.Write) ]);
  checkb "sites in order" true
    (Kcov.sites db = [ site "A" "s"; site "A" "t"; site "B" "l" ])

let () =
  Alcotest.run "ksim"
    [ ( "value",
        [ Alcotest.test_case "truthiness" `Quick test_value_truthy;
          Alcotest.test_case "equality" `Quick test_value_equal;
          Alcotest.test_case "is_null" `Quick test_value_is_null ] );
      ( "addr",
        [ Alcotest.test_case "overlap" `Quick test_addr_overlap;
          Alcotest.test_case "compare/map" `Quick test_addr_compare ] );
      ( "program",
        [ Alcotest.test_case "labels" `Quick test_program_labels;
          Alcotest.test_case "duplicate label" `Quick
            test_program_duplicate_label;
          Alcotest.test_case "dangling goto" `Quick test_program_dangling_goto
        ] );
      ( "machine-basics",
        [ Alcotest.test_case "assign/branch" `Quick test_assign_branch;
          Alcotest.test_case "load/store defaults" `Quick
            test_load_store_defaults;
          Alcotest.test_case "globals" `Quick test_globals_initialized;
          Alcotest.test_case "null deref" `Quick test_null_dereference;
          Alcotest.test_case "gpf" `Quick test_gpf_on_int_deref;
          Alcotest.test_case "alloc/uaf" `Quick test_alloc_fields_and_uaf;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "kfree(NULL)" `Quick test_free_null_is_noop;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "bug_on/warn_on" `Quick test_bug_on_and_warn_on
        ] );
      ( "machine-locks",
        [ Alcotest.test_case "mutual exclusion" `Quick
            test_lock_mutual_exclusion;
          Alcotest.test_case "self deadlock" `Quick test_lock_self_deadlock;
          Alcotest.test_case "unlock not held" `Quick
            test_unlock_not_held_is_model_error ] );
      ( "machine-kthreads",
        [ Alcotest.test_case "queue_work" `Quick test_queue_work_spawns;
          Alcotest.test_case "rcu/timer" `Quick test_rcu_and_timer_contexts;
          Alcotest.test_case "enable_irq" `Quick
            test_enable_irq_spawns_hardirq ] );
      ( "machine-lists",
        [ Alcotest.test_case "list ops" `Quick test_list_ops;
          Alcotest.test_case "double add" `Quick
            test_list_double_add_corruption;
          Alcotest.test_case "del missing" `Quick
            test_list_del_missing_corruption ] );
      ( "machine-rmw",
        [ Alcotest.test_case "rmw" `Quick test_rmw;
          Alcotest.test_case "refcount lifecycle" `Quick
            test_refcount_lifecycle;
          Alcotest.test_case "underflow" `Quick test_refcount_underflow_warns;
          Alcotest.test_case "inc on zero" `Quick
            test_refcount_inc_on_zero_warns ] );
      ( "machine-misc",
        [ Alcotest.test_case "occurrences" `Quick test_occurrences_in_loop;
          Alcotest.test_case "leak detection" `Quick test_leak_detection;
          Alcotest.test_case "persistence" `Quick test_persistence_snapshot;
          Alcotest.test_case "kcov db" `Quick test_kcov_db;
          Alcotest.test_case "kcov learns only new" `Quick
            test_kcov_learns_only_new;
          Alcotest.test_case "same_bug" `Quick test_failure_same_bug;
          Alcotest.test_case "failure printing" `Quick test_failure_printing;
          Alcotest.test_case "kcov coverage" `Quick test_kcov_coverage ] ) ]
