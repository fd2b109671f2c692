(* Unit tests for data-race extraction and structural relations. *)

open Ksim.Program.Build
module Iid = Ksim.Access.Iid
module Race = Aitia.Race
module Schedule = Hypervisor.Schedule
module Controller = Hypervisor.Controller

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let thread name instrs =
  { Ksim.Program.spec_name = name;
    context = Ksim.Program.Syscall { call = name; sysno = 0 };
    program = Ksim.Program.make ~name instrs;
    resources = [] }

let group ?entries ?globals threads =
  Ksim.Program.group ?entries ?globals ~name:"test" threads

(* Run a group under an explicit plan of (tid, label) pairs. *)
let run_plan grp plan =
  let plan =
    Schedule.plan
      (List.map (fun (tid, label) -> Iid.make ~tid ~label ~occ:1) plan)
  in
  Controller.run (Ksim.Machine.create grp) (Schedule.plan_policy plan)

let race_strings races =
  List.map (fun r -> Fmt.str "%a" Race.pp_short r) races

(* --- of_trace --------------------------------------------------------- *)

let test_write_read_race () =
  let grp =
    group
      [ thread "A" [ store "a1" (g "x") (cint 1) ];
        thread "B" [ load "b1" "v" (g "x") ] ]
  in
  let o = run_plan grp [ (0, "a1"); (1, "b1") ] in
  Alcotest.(check (list string)) "one race" [ "a1 => b1" ]
    (race_strings (Race.of_trace o.trace))

let test_read_read_no_race () =
  let grp =
    group
      [ thread "A" [ load "a1" "v" (g "x") ];
        thread "B" [ load "b1" "v" (g "x") ] ]
  in
  let o = run_plan grp [ (0, "a1"); (1, "b1") ] in
  checki "no race" 0 (List.length (Race.of_trace o.trace))

let test_same_thread_no_race () =
  let grp =
    group
      [ thread "A"
          [ store "a1" (g "x") (cint 1); load "a2" "v" (g "x") ] ]
  in
  let o = run_plan grp [ (0, "a1"); (0, "a2") ] in
  checki "no race" 0 (List.length (Race.of_trace o.trace))

let test_read_skips_to_first_write () =
  (* A1 R, B1 R, B2 W: the race is A1 => B2, across the interposed read
     (the CVE-2017-2636 shape). *)
  let grp =
    group
      [ thread "A" [ load "a1" "v" (g "x") ];
        thread "B" [ load "b1" "v" (g "x"); store "b2" (g "x") (cint 1) ] ]
  in
  let o = run_plan grp [ (0, "a1"); (1, "b1"); (1, "b2") ] in
  Alcotest.(check (slist string compare)) "race across read"
    [ "a1 => b2" ]
    (race_strings (Race.of_trace o.trace))

let test_supersession () =
  (* A1 W, A2 W, B1 R: A2 supersedes A1; only A2 => B1 is a race. *)
  let grp =
    group
      [ thread "A"
          [ store "a1" (g "x") (cint 1); store "a2" (g "x") (cint 2) ];
        thread "B" [ load "b1" "v" (g "x") ] ]
  in
  let o = run_plan grp [ (0, "a1"); (0, "a2"); (1, "b1") ] in
  Alcotest.(check (list string)) "superseded" [ "a2 => b1" ]
    (race_strings (Race.of_trace o.trace))

let test_free_conflicts_with_field () =
  let grp =
    group
      [ thread "A"
          [ alloc "a0" "p" "obj";
            store "a1" (g "ptr") (reg "p");
            free "a2" (reg "p") ];
        thread "B"
          [ load "b1" "q" (g "ptr"); load "b2" "v" (reg "q" **-> "f") ] ]
  in
  (* B reads the pointer, A frees, B dereferences: UAF race a2 => b2. *)
  let o =
    run_plan grp [ (0, "a0"); (0, "a1"); (1, "b1"); (0, "a2"); (1, "b2") ]
  in
  checkb "failed" true
    (match o.verdict with Controller.Failed _ -> true | _ -> false);
  let races = race_strings (Race.of_trace o.trace) in
  checkb "free-use race found" true (List.mem "a2 => b2" races)

(* --- pending races ------------------------------------------------------ *)

let test_pending_race_after_failure () =
  (* B's assertion fires before A's write executes; the write is known
     from the access database and becomes a pending race (the B17 => A12
     shape of Figure 6). *)
  let grp =
    group
      [ thread "A" [ store "a1" (g "x") (cint 1) ];
        thread "B"
          [ load "b1" "v" (g "x"); bug_on "b2" (Eq (reg "v", cint 0)) ] ]
  in
  (* Learn A's access in a passing run. *)
  let pass = run_plan grp [ (0, "a1"); (1, "b1"); (1, "b2") ] in
  checkb "passes" true (pass.verdict = Controller.Completed);
  let db =
    Ksim.Kcov.add_trace
      ~thread_base:(Ksim.Machine.thread_base pass.final)
      Ksim.Kcov.empty pass.trace
  in
  (* Failing order: b1 reads 0, BUG fires, a1 never runs. *)
  let fail_ = run_plan grp [ (1, "b1"); (1, "b2"); (0, "a1") ] in
  checkb "fails" true
    (match fail_.verdict with Controller.Failed _ -> true | _ -> false);
  let pending =
    Race.pending_of_failure ~db ~final:fail_.final fail_.trace
  in
  Alcotest.(check (list string)) "pending race" [ "b1 => a1" ]
    (race_strings pending)

(* --- structural relations ----------------------------------------------- *)

let access tid label time addr kind =
  { Ksim.Access.iid = Iid.make ~tid ~label ~occ:1; addr; kind; time; held = [] }

let test_surrounds () =
  let x = Ksim.Addr.Global "x" and y = Ksim.Addr.Global "y" in
  (* trace order: A1(x) A2(y) B1(y) B2(x) — Figure 7 *)
  let outer =
    { Race.first = access 0 "A1" 1 x Ksim.Instr.Write;
      second = access 1 "B2" 4 x Ksim.Instr.Read }
  in
  let inner =
    { Race.first = access 0 "A2" 2 y Ksim.Instr.Write;
      second = access 1 "B1" 3 y Ksim.Instr.Read }
  in
  checkb "outer surrounds inner" true (Race.surrounds outer inner);
  checkb "inner does not surround outer" false (Race.surrounds inner outer);
  checkb "not self" false (Race.surrounds outer outer)

let test_occurred_in_is_order_aware () =
  let grp =
    group
      [ thread "A" [ store "a1" (g "x") (cint 1) ];
        thread "B" [ load "b1" "v" (g "x") ] ]
  in
  let o = run_plan grp [ (0, "a1"); (1, "b1") ] in
  let r = List.hd (Race.of_trace o.trace) in
  checkb "occurred" true (Race.occurred_in o.trace r);
  (* Reversed order: same endpoints, opposite interleaving. *)
  let o' = run_plan grp [ (1, "b1"); (0, "a1") ] in
  checkb "inverted does not occur" false (Race.occurred_in o'.trace r)

let test_race_key_direction () =
  let x = Ksim.Addr.Global "x" in
  let a = access 0 "A1" 1 x Ksim.Instr.Write in
  let b = access 1 "B1" 2 x Ksim.Instr.Read in
  let r1 = { Race.first = a; second = b } in
  let r2 = { Race.first = b; second = a } in
  checkb "direction matters" false (Race.equal r1 r2);
  checkb "self equal" true (Race.equal r1 r1)

let test_cs_order_annotation () =
  let grp =
    group
      [ thread "A"
          [ lock "al" "m"; store "a1" (g "x") (cint 1); unlock "au" "m" ];
        thread "B"
          [ lock "bl" "m"; load "b1" "v" (g "x"); unlock "bu" "m" ] ]
  in
  let o =
    run_plan grp
      [ (0, "al"); (0, "a1"); (0, "au"); (1, "bl"); (1, "b1"); (1, "bu") ]
  in
  (match Race.of_trace o.trace with
  | [ r ] ->
    checkb "lock-protected pair flagged" true (Race.is_cs_order r)
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs));
  (* An unlocked pair is a plain data race. *)
  let grp2 =
    group
      [ thread "A" [ store "a1" (g "x") (cint 1) ];
        thread "B" [ load "b1" "v" (g "x") ] ]
  in
  let o2 = run_plan grp2 [ (0, "a1"); (1, "b1") ] in
  match Race.of_trace o2.trace with
  | [ r ] -> checkb "unlocked pair not flagged" false (Race.is_cs_order r)
  | _ -> Alcotest.fail "expected one race"

let test_location_sequences_merges_whole () =
  let x = Ksim.Addr.Field (3, "f") in
  let w = Ksim.Addr.Whole 3 in
  let accesses =
    [ access 0 "a" 1 x Ksim.Instr.Read; access 1 "k" 2 w Ksim.Instr.Write ]
  in
  let seqs = Race.location_sequences accesses in
  let field_seq =
    List.assoc x (List.map (fun (a, s) -> (a, List.length s)) seqs)
  in
  checki "whole merged into field sequence" 2 field_seq

(* --- structural identity ------------------------------------------------ *)

(* The failing-trace races of the 22 real bugs (10 CVEs, 12 Syzkaller),
   pending races included, plus the trace races of generated programs
   under a few random schedules each.  Races of one program recur
   across its schedules, so the pool holds many identical pairs. *)
let identity_pool =
  lazy
    (let corpus =
       List.concat_map
         (fun (bug : Bugs.Bug.t) ->
           let r =
             Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
               (bug.case ())
           in
           match r.lifs.found with
           | Some s -> s.Aitia.Lifs.races
           | None -> Alcotest.failf "%s did not reproduce" bug.id)
         (Bugs.Registry.cves @ Bugs.Registry.syzkaller)
     in
     let rand = Random.State.make [| 4242 |] in
     let generated =
       List.concat
         (List.init 60 (fun _ ->
              let grp =
                QCheck.Gen.generate1 ~rand Oracle_gen.gen_oracle_group
              in
              List.concat
                (List.init 3 (fun seed ->
                     let rng = Fuzz.Rng.create seed in
                     let o =
                       Controller.run (Ksim.Machine.create grp)
                         (fun _m runnable ->
                           match runnable with
                           | [] -> None
                           | xs -> Some (Fuzz.Rng.pick rng xs))
                     in
                     Race.of_trace o.trace))))
     in
     (corpus, generated))

let test_equal_matches_key () =
  let corpus, generated = Lazy.force identity_pool in
  let races = Array.of_list (corpus @ generated) in
  let keys = Array.map Race.key races in
  let n = Array.length races in
  let same = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let by_key = String.equal keys.(i) keys.(j) in
      let eq = Race.equal races.(i) races.(j) in
      if eq <> by_key then
        Alcotest.failf "equal %b but keys %s / %s" eq keys.(i) keys.(j);
      if (Race.compare races.(i) races.(j) = 0) <> eq then
        Alcotest.failf "compare disagrees with equal on %s / %s" keys.(i)
          keys.(j);
      if eq && i <> j then incr same
    done
  done;
  checkb
    (Fmt.str "%d corpus races, %d generated" (List.length corpus)
       (List.length generated))
    true
    (List.length corpus >= 22 && generated <> []);
  checkb
    (Fmt.str "%d identical pairs at distinct positions" !same)
    true (!same > 0)

let test_surrounds_irreflexive () =
  let corpus, generated = Lazy.force identity_pool in
  List.iter
    (fun r ->
      if Race.surrounds r r then
        Alcotest.failf "%s surrounds itself" (Race.key r))
    (corpus @ generated)

let () =
  Alcotest.run "race"
    [ ( "of_trace",
        [ Alcotest.test_case "write/read" `Quick test_write_read_race;
          Alcotest.test_case "read/read" `Quick test_read_read_no_race;
          Alcotest.test_case "same thread" `Quick test_same_thread_no_race;
          Alcotest.test_case "across reads" `Quick
            test_read_skips_to_first_write;
          Alcotest.test_case "supersession" `Quick test_supersession;
          Alcotest.test_case "free/field" `Quick
            test_free_conflicts_with_field ] );
      ( "pending",
        [ Alcotest.test_case "after failure" `Quick
            test_pending_race_after_failure ] );
      ( "relations",
        [ Alcotest.test_case "surrounds" `Quick test_surrounds;
          Alcotest.test_case "occurred_in order" `Quick
            test_occurred_in_is_order_aware;
          Alcotest.test_case "key direction" `Quick test_race_key_direction;
          Alcotest.test_case "equal iff keys equal" `Quick
            test_equal_matches_key;
          Alcotest.test_case "surrounds irreflexive" `Quick
            test_surrounds_irreflexive;
          Alcotest.test_case "cs-order flag" `Quick test_cs_order_annotation;
          Alcotest.test_case "whole merge" `Quick
            test_location_sequences_merges_whole ] ) ]
