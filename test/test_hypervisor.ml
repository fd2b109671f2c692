(* Unit tests for the scheduling control plane: controller, schedules,
   VM accounting. *)

open Ksim.Program.Build
module Schedule = Hypervisor.Schedule
module Controller = Hypervisor.Controller
module Iid = Ksim.Access.Iid

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let thread name instrs =
  { Ksim.Program.spec_name = name;
    context = Ksim.Program.Syscall { call = name; sysno = 0 };
    program = Ksim.Program.make ~name instrs;
    resources = [] }

let group ?entries ?globals ?locks threads =
  Ksim.Program.group ?entries ?globals ?locks ~name:"test" threads

let labels_of (o : Controller.outcome) =
  List.map (fun (e : Ksim.Machine.event) -> e.iid.Iid.label) o.trace

let run_serial ?max_steps grp order =
  Controller.run ?max_steps (Ksim.Machine.create grp)
    (Schedule.preemption_policy (Schedule.serial order))

(* --- controller ---------------------------------------------------------- *)

let test_completion () =
  let grp = group [ thread "A" [ nop "a1"; nop "a2" ] ] in
  let o = run_serial grp [ 0 ] in
  checkb "completed" true (o.verdict = Controller.Completed);
  checki "steps" 2 o.steps

let test_failure_verdict () =
  let grp = group [ thread "A" [ bug_on "b" (cint 1) ] ] in
  let o = run_serial grp [ 0 ] in
  match o.verdict with
  | Controller.Failed (Ksim.Failure.Assertion_violation _) -> ()
  | _ -> Alcotest.fail "expected failure verdict"

let test_deadlock_verdict () =
  let grp =
    group ~locks:[ "m"; "n" ]
      [ thread "A"
          [ lock "a1" "m"; lock "a2" "n"; unlock "a3" "n"; unlock "a4" "m" ];
        thread "B"
          [ lock "b1" "n"; lock "b2" "m"; unlock "b3" "m"; unlock "b4" "n" ] ]
  in
  (* Force the classic ABBA interleaving: A takes m, then switch to B. *)
  let sched =
    { Schedule.order = [ 0; 1 ];
      switches =
        [ { Schedule.after = Iid.make ~tid:0 ~label:"a1" ~occ:1;
            switch_to = 1 } ] }
  in
  let o =
    Controller.run (Ksim.Machine.create grp) (Schedule.preemption_policy sched)
  in
  checkb "deadlock" true (o.verdict = Controller.Deadlock)

let test_step_limit () =
  let grp = group [ thread "A" [ nop "top"; goto "again" "top" ] ] in
  let o = run_serial ~max_steps:50 grp [ 0 ] in
  checkb "watchdog" true (o.verdict = Controller.Step_limit);
  checki "steps" 50 o.steps

(* --- preemption schedules ------------------------------------------------- *)

let test_serial_order () =
  let grp =
    group [ thread "A" [ nop "a1"; nop "a2" ]; thread "B" [ nop "b1" ] ]
  in
  let o = run_serial grp [ 1; 0 ] in
  Alcotest.(check (list string)) "B first" [ "b1"; "a1"; "a2" ] (labels_of o)

let test_switch_after_instruction () =
  let grp =
    group
      [ thread "A" [ nop "a1"; nop "a2" ]; thread "B" [ nop "b1"; nop "b2" ] ]
  in
  let sched =
    { Schedule.order = [ 0; 1 ];
      switches =
        [ { Schedule.after = Iid.make ~tid:0 ~label:"a1" ~occ:1;
            switch_to = 1 } ] }
  in
  let o =
    Controller.run (Ksim.Machine.create grp) (Schedule.preemption_policy sched)
  in
  Alcotest.(check (list string)) "preempted after a1"
    [ "a1"; "b1"; "b2"; "a2" ] (labels_of o)

let test_spawned_runs_after_spawner () =
  let worker = ("w", Ksim.Program.make ~name:"w" [ nop "k1" ]) in
  let grp =
    group ~entries:[ worker ]
      [ thread "A" [ queue_work "q" "w"; nop "a2" ]; thread "B" [ nop "b1" ] ]
  in
  let o = run_serial grp [ 0; 1 ] in
  (* Spawned worker is inserted right after its spawner in the queue:
     A completes, then w, then B. *)
  Alcotest.(check (list string)) "kworker before B" [ "q"; "a2"; "k1"; "b1" ]
    (labels_of o)

let test_interleaving_count_and_key () =
  let s0 = Schedule.serial [ 0; 1 ] in
  checki "serial count" 0 (Schedule.interleaving_count s0);
  let s1 =
    { s0 with
      Schedule.switches =
        [ { Schedule.after = Iid.make ~tid:0 ~label:"x" ~occ:1;
            switch_to = 1 } ] }
  in
  checki "one switch" 1 (Schedule.interleaving_count s1);
  checkb "keys differ" false
    (String.equal (Schedule.preemption_key s0) (Schedule.preemption_key s1))

(* Every schedule with at most two switches over a small domain whose
   labels contain the key's own separators and digits, next to
   occurrence counts that could run into them: keys must be equal for
   equal schedules, distinct for distinct ones, and no key may be a
   proper prefix of another (LIFS extends schedule keys into
   equivalence signatures filed in the same table). *)
let test_preemption_key_identity () =
  let labels = [ ""; "1"; "12"; "1,"; ",1"; ";"; "|"; "a" ] in
  let switches =
    List.concat_map
      (fun tid ->
        List.concat_map
          (fun label ->
            List.concat_map
              (fun occ ->
                List.map
                  (fun switch_to ->
                    { Schedule.after = Iid.make ~tid ~label ~occ; switch_to })
                  [ 0; 1 ])
              [ 1; 2; 12 ])
          labels)
      [ 0; 1 ]
  in
  let switch_lists =
    ([] :: List.map (fun s -> [ s ]) switches)
    @ List.concat_map (fun a -> List.map (fun b -> [ a; b ]) switches)
        switches
  in
  let orders = [ []; [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 1; 0 ]; [ 12 ] ] in
  let keys : (string, Schedule.preemption) Hashtbl.t = Hashtbl.create 65536 in
  List.iter
    (fun order ->
      List.iter
        (fun switches ->
          let p = { Schedule.order; switches } in
          let k = Schedule.preemption_key p in
          (* an equal schedule built from fresh strings *)
          let fresh (s : Schedule.switch) =
            let label = Bytes.to_string (Bytes.of_string s.after.label) in
            { s with Schedule.after = { s.after with label } }
          in
          let copy = { Schedule.order; switches = List.map fresh switches } in
          checkb "equal schedules, equal keys" true
            (String.equal k (Schedule.preemption_key copy));
          (match Hashtbl.find_opt keys k with
          | Some q ->
            Alcotest.failf "key collision: %a and %a" Schedule.pp_preemption p
              Schedule.pp_preemption q
          | None -> ());
          Hashtbl.add keys k p)
        switch_lists)
    orders;
  Hashtbl.iter
    (fun k p ->
      for len = 0 to String.length k - 1 do
        match Hashtbl.find_opt keys (String.sub k 0 len) with
        | Some q ->
          Alcotest.failf "key of %a is a prefix of the key of %a"
            Schedule.pp_preemption q Schedule.pp_preemption p
        | None -> ()
      done)
    keys

(* --- plan schedules -------------------------------------------------------- *)

let test_plan_exact_replay () =
  let grp =
    group
      [ thread "A"
          [ store "a1" (g "x") (cint 1); store "a2" (g "y") (cint 1) ];
        thread "B" [ store "b1" (g "x") (cint 2) ] ]
  in
  let plan =
    Schedule.plan
      [ Iid.make ~tid:0 ~label:"a1" ~occ:1;
        Iid.make ~tid:1 ~label:"b1" ~occ:1;
        Iid.make ~tid:0 ~label:"a2" ~occ:1 ]
  in
  let o =
    Controller.run (Ksim.Machine.create grp) (Schedule.plan_policy plan)
  in
  Alcotest.(check (list string)) "exact order" [ "a1"; "b1"; "a2" ]
    (labels_of o);
  checkb "completed" true (o.verdict = Controller.Completed)

let test_plan_run_through_divergence () =
  (* The plan references a label on a branch path that is not taken; the
     policy runs the thread through the new path and drops the planned
     event. *)
  let grp =
    group
      [ thread "A"
          [ load "a1" "v" (g "flag");
            branch_if "a2" (Eq (reg "v", cint 0)) "skip";
            store "a3" (g "x") (cint 1);
            nop "skip" ] ]
  in
  let plan =
    Schedule.plan
      [ Iid.make ~tid:0 ~label:"a1" ~occ:1;
        Iid.make ~tid:0 ~label:"a2" ~occ:1;
        Iid.make ~tid:0 ~label:"a3" ~occ:1 (* never executes: flag = 0 *) ]
  in
  let o =
    Controller.run (Ksim.Machine.create grp) (Schedule.plan_policy plan)
  in
  checkb "completed" true (o.verdict = Controller.Completed);
  checkb "a3 skipped" false (List.mem "a3" (labels_of o))

let test_plan_lock_liveness () =
  (* The plan asks for B first, but B needs the lock A holds; the policy
     must run A (the holder) to release it. *)
  let grp =
    group ~locks:[ "m" ]
      [ thread "A" [ lock "a1" "m"; nop "a2"; unlock "a3" "m" ];
        thread "B" [ lock "b1" "m"; unlock "b2" "m" ] ]
  in
  let plan =
    Schedule.plan
      [ Iid.make ~tid:0 ~label:"a1" ~occ:1;
        Iid.make ~tid:1 ~label:"b1" ~occ:1 (* blocked: A holds m *);
        Iid.make ~tid:1 ~label:"b2" ~occ:1;
        Iid.make ~tid:0 ~label:"a2" ~occ:1;
        Iid.make ~tid:0 ~label:"a3" ~occ:1 ]
  in
  let o =
    Controller.run (Ksim.Machine.create grp) (Schedule.plan_policy plan)
  in
  checkb "completed (no deadlock)" true (o.verdict = Controller.Completed)

(* A planned event whose label the thread's program lacks never
   matches: the thread runs through it and the run completes. *)
let test_plan_unknown_label () =
  let grp = group [ thread "A" [ nop "a1"; nop "a2" ] ] in
  let plan =
    Schedule.plan
      [ Iid.make ~tid:0 ~label:"a1" ~occ:1;
        Iid.make ~tid:0 ~label:"missing" ~occ:1 ]
  in
  List.iter
    (fun boot ->
      let o = Controller.run (boot grp) (Schedule.plan_policy plan) in
      checkb "completed" true (o.verdict = Controller.Completed);
      checki "both instructions ran" 2 (List.length o.trace))
    [ Ksim.Machine.create; Ksim.Machine.create_compiled ]

(* --- vm -------------------------------------------------------------------- *)

let test_vm_accounting () =
  let grp = group [ thread "A" [ bug_on "b" (cint 1) ] ] in
  let vm = Hypervisor.Vm.create grp in
  let policy () = Schedule.preemption_policy (Schedule.serial [ 0 ]) in
  let _ = Hypervisor.Vm.run vm (policy ()) in
  let _ = Hypervisor.Vm.run vm (policy ()) in
  checki "runs" 2 (Hypervisor.Vm.runs vm);
  checki "failures" 2 (Hypervisor.Vm.failures vm);
  checkb "failing runs cost reboots" true
    (Hypervisor.Vm.simulated_seconds vm
    > 2.0 *. Hypervisor.Vm.default_costs.per_schedule)

let test_vm_costs_shape () =
  (* A failing run must be more expensive than a passing one: reboots
     dominate, which is why Causality Analysis takes longer (§5.1). *)
  let pass = group [ thread "A" [ nop "n" ] ] in
  let fail_ = group [ thread "A" [ bug_on "b" (cint 1) ] ] in
  let vm_pass = Hypervisor.Vm.create pass in
  let vm_fail = Hypervisor.Vm.create fail_ in
  let _ =
    Hypervisor.Vm.run vm_pass
      (Schedule.preemption_policy (Schedule.serial [ 0 ]))
  in
  let _ =
    Hypervisor.Vm.run vm_fail
      (Schedule.preemption_policy (Schedule.serial [ 0 ]))
  in
  checkb "failure costlier" true
    (Hypervisor.Vm.simulated_seconds vm_fail
    > Hypervisor.Vm.simulated_seconds vm_pass)

let test_vm_custom_costs () =
  let grp = group [ thread "A" [ bug_on "b" (cint 1) ] ] in
  let costs = { Hypervisor.Vm.per_schedule = 2.0; per_reboot = 10.0 } in
  let vm = Hypervisor.Vm.create ~costs grp in
  let _ =
    Hypervisor.Vm.run vm (Schedule.preemption_policy (Schedule.serial [ 0 ]))
  in
  checkb "custom model applied" true
    (Float.abs (Hypervisor.Vm.simulated_seconds vm -. 12.0) < 1e-9)

let test_schedule_printing () =
  let sched =
    { Schedule.order = [ 0; 1 ];
      switches =
        [ { Schedule.after = Iid.make ~tid:0 ~label:"a1" ~occ:1;
            switch_to = 1 } ] }
  in
  checkb "preemption renders" true
    (String.length (Fmt.str "%a" Schedule.pp_preemption sched) > 10);
  let plan = Schedule.plan [ Iid.make ~tid:0 ~label:"a1" ~occ:1 ] in
  checkb "plan renders" true
    (String.length (Fmt.str "%a" Schedule.pp_plan plan) > 5)

let () =
  Alcotest.run "hypervisor"
    [ ( "controller",
        [ Alcotest.test_case "completion" `Quick test_completion;
          Alcotest.test_case "failure" `Quick test_failure_verdict;
          Alcotest.test_case "deadlock" `Quick test_deadlock_verdict;
          Alcotest.test_case "step limit" `Quick test_step_limit ] );
      ( "preemption",
        [ Alcotest.test_case "serial order" `Quick test_serial_order;
          Alcotest.test_case "switch point" `Quick
            test_switch_after_instruction;
          Alcotest.test_case "spawn placement" `Quick
            test_spawned_runs_after_spawner;
          Alcotest.test_case "count/key" `Quick
            test_interleaving_count_and_key;
          Alcotest.test_case "key identity" `Quick
            test_preemption_key_identity ] );
      ( "plan",
        [ Alcotest.test_case "exact replay" `Quick test_plan_exact_replay;
          Alcotest.test_case "divergence" `Quick
            test_plan_run_through_divergence;
          Alcotest.test_case "lock liveness" `Quick test_plan_lock_liveness;
          Alcotest.test_case "unknown label" `Quick
            test_plan_unknown_label ] );
      ( "vm",
        [ Alcotest.test_case "accounting" `Quick test_vm_accounting;
          Alcotest.test_case "cost shape" `Quick test_vm_costs_shape;
          Alcotest.test_case "custom costs" `Quick test_vm_custom_costs;
          Alcotest.test_case "printers" `Quick test_schedule_printing ] ) ]
