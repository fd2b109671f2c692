(* Property-based tests (qcheck) on the simulator and the core
   algorithms: determinism, persistence, race well-formedness, plan
   replay faithfulness. *)

open Ksim.Program.Build
module Iid = Ksim.Access.Iid

(* --- generators ------------------------------------------------------------ *)

let globals = [ "g0"; "g1"; "g2" ]

(* A random terminating straight-line-with-forward-branches program. *)
let gen_program ~prefix : Ksim.Program.labeled list QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let gen_instr i =
    let label = Fmt.str "%s%d" prefix i in
    let* k = int_range 0 4 in
    let* gvar = oneofl globals in
    match k with
    | 0 -> return (load label "r" (g gvar))
    | 1 ->
      let* v = int_range 0 9 in
      return (store label (g gvar) (cint v))
    | 2 ->
      let* v = int_range 0 9 in
      return (assign label "r" (cint v))
    | 3 when i + 1 < n ->
      (* forward branch: always terminates.  "r" is safe to read: every
         generated thread initializes it first. *)
      let* target = int_range (i + 1) (n - 1) in
      let* v = int_range 0 1 in
      return
        (branch_if label (Eq (reg "r", cint v)) (Fmt.str "%s%d" prefix target))
    | _ -> return (nop label)
  in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else
      let* instr = gen_instr i in
      build (i + 1) (instr :: acc)
  in
  build 0 []

let gen_group : Ksim.Program.group QCheck.Gen.t =
  let open QCheck.Gen in
  let* pa = gen_program ~prefix:"a" in
  let* pb = gen_program ~prefix:"b" in
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program = Ksim.Program.make ~name (assign (name ^ "_init") "r" (cint 0) :: instrs);
      resources = [] }
  in
  return
    (Ksim.Program.group ~name:"prop"
       ~globals:(List.map (fun gv -> (gv, Ksim.Value.Int 0)) globals)
       [ thread "A" pa; thread "B" pb ])

(* Like [gen_program], but the thread can also assert on what it reads —
   so interleavings can actually fail. *)
let gen_failing_program ~prefix : Ksim.Program.labeled list QCheck.Gen.t =
  let open QCheck.Gen in
  let* base = gen_program ~prefix in
  let* gvar = oneofl globals in
  let* v = int_range 1 9 in
  return
    (base
    @ [ load (prefix ^ "_chk_ld") "r" (g gvar);
        bug_on (prefix ^ "_chk") (Eq (reg "r", cint v)) ])

let gen_failing_group : Ksim.Program.group QCheck.Gen.t =
  let open QCheck.Gen in
  let* pa = gen_failing_program ~prefix:"a" in
  let* pb = gen_failing_program ~prefix:"b" in
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program =
        Ksim.Program.make ~name
          (assign (name ^ "_init") "r" (cint 0) :: instrs);
      resources = [] }
  in
  return
    (Ksim.Program.group ~name:"prop-fail"
       ~globals:(List.map (fun gv -> (gv, Ksim.Value.Int 0)) globals)
       [ thread "A" pa; thread "B" pb ])

let gen_seed = QCheck.Gen.int_range 0 1_000_000

(* Run a group under a seeded random policy. *)
let random_run group seed =
  let rng = Fuzz.Rng.create seed in
  Hypervisor.Controller.run (Ksim.Machine.create group)
    (fun m ->
      match Ksim.Machine.runnable m with
      | [] -> None
      | xs -> Some (Fuzz.Rng.pick rng xs))

let arb_group_seed =
  QCheck.make
    ~print:(fun (grp, seed) ->
      Fmt.str "group %s, seed %d" grp.Ksim.Program.group_name seed)
    QCheck.Gen.(pair gen_group gen_seed)

let iids_of (o : Hypervisor.Controller.outcome) =
  List.map (fun (e : Ksim.Machine.event) -> e.iid) o.trace

(* --- properties ------------------------------------------------------------- *)

let prop_determinism =
  QCheck.Test.make ~count:200 ~name:"same seed => same trace" arb_group_seed
    (fun (group, seed) ->
      let o1 = random_run group seed in
      let o2 = random_run group seed in
      List.for_all2 Iid.equal (iids_of o1) (iids_of o2)
      && o1.verdict = o2.verdict)

let prop_persistence =
  QCheck.Test.make ~count:200 ~name:"stepping never mutates the snapshot"
    arb_group_seed (fun (group, seed) ->
      let m0 = Ksim.Machine.create group in
      let before =
        List.map (fun gv -> Ksim.Machine.mem_read m0 (Ksim.Addr.Global gv))
          globals
      in
      let _ = random_run group seed in
      let after =
        List.map (fun gv -> Ksim.Machine.mem_read m0 (Ksim.Addr.Global gv))
          globals
      in
      List.for_all2 Ksim.Value.equal before after)

let prop_races_well_formed =
  QCheck.Test.make ~count:200 ~name:"extracted races are well-formed"
    arb_group_seed (fun (group, seed) ->
      let o = random_run group seed in
      let races = Aitia.Race.of_trace o.trace in
      List.for_all
        (fun (r : Aitia.Race.t) ->
          r.first.iid.Iid.tid <> r.second.iid.Iid.tid
          && Ksim.Addr.overlaps r.first.addr r.second.addr
          && (Ksim.Access.is_write r.first || Ksim.Access.is_write r.second)
          && r.first.time < r.second.time)
        races)

let prop_plan_replay =
  QCheck.Test.make ~count:200 ~name:"plan replay reproduces the trace"
    arb_group_seed (fun (group, seed) ->
      let o = random_run group seed in
      QCheck.assume (o.verdict = Hypervisor.Controller.Completed);
      let plan = Hypervisor.Schedule.plan (iids_of o) in
      let o' =
        Hypervisor.Controller.run (Ksim.Machine.create group)
          (Hypervisor.Schedule.plan_policy plan)
      in
      List.length o.trace = List.length o'.trace
      && List.for_all2 Iid.equal (iids_of o) (iids_of o'))

let prop_race_keys_unique =
  QCheck.Test.make ~count:200 ~name:"race keys are unique within a trace"
    arb_group_seed (fun (group, seed) ->
      let o = random_run group seed in
      let keys = List.map Aitia.Race.key (Aitia.Race.of_trace o.trace) in
      List.length keys = List.length (List.sort_uniq String.compare keys))

let prop_permutations =
  QCheck.Test.make ~count:100 ~name:"permutations: count and uniqueness"
    (QCheck.make QCheck.Gen.(int_range 0 5))
    (fun n ->
      let xs = List.init n Fun.id in
      let perms = Aitia.Lifs.permutations xs in
      let fact = List.fold_left ( * ) 1 (List.init n (fun i -> i + 1)) in
      List.length perms = fact
      && List.length (List.sort_uniq compare perms) = fact
      && List.for_all
           (fun p -> List.sort compare p = xs)
           perms)

let prop_location_sequences_sorted =
  QCheck.Test.make ~count:200 ~name:"location sequences are time-sorted"
    arb_group_seed (fun (group, seed) ->
      let o = random_run group seed in
      let accesses = Aitia.Race.accesses_of_trace o.trace in
      Aitia.Race.location_sequences accesses
      |> List.for_all (fun (_, seq) ->
             let rec sorted = function
               | (a : Ksim.Access.t) :: (b :: _ as rest) ->
                 a.time <= b.time && sorted rest
               | [ _ ] | [] -> true
             in
             sorted seq))

let prop_rng_int_bounds =
  QCheck.Test.make ~count:500 ~name:"rng int respects bounds"
    (QCheck.make QCheck.Gen.(pair gen_seed (int_range 1 1000)))
    (fun (seed, bound) ->
      let r = Fuzz.Rng.create seed in
      let x = Fuzz.Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~count:200 ~name:"rng shuffle permutes"
    (QCheck.make QCheck.Gen.(pair gen_seed (list_size (int_range 0 20) int)))
    (fun (seed, xs) ->
      let r = Fuzz.Rng.create seed in
      List.sort compare (Fuzz.Rng.shuffle r xs) = List.sort compare xs)

let prop_flip_plan_preserves_events =
  QCheck.Test.make ~count:200
    ~name:"flip plan preserves the trace's event multiset"
    arb_group_seed (fun (group, seed) ->
      let o = random_run group seed in
      QCheck.assume (o.verdict = Hypervisor.Controller.Completed);
      match Aitia.Race.of_trace o.trace with
      | [] -> true
      | r :: _ ->
        let plan =
          Aitia.Causality.flip_plan (Analysis.Flipfeas.context o.trace) r
        in
        let sort =
          List.sort (fun a b -> compare (Fmt.str "%a" Iid.pp_full a) (Fmt.str "%a" Iid.pp_full b))
        in
        sort plan.Hypervisor.Schedule.events = sort (iids_of o))

let prop_flip_plan_inverts_order =
  QCheck.Test.make ~count:200 ~name:"flip plan puts second before first"
    arb_group_seed (fun (group, seed) ->
      let o = random_run group seed in
      QCheck.assume (o.verdict = Hypervisor.Controller.Completed);
      match Aitia.Race.of_trace o.trace with
      | [] -> true
      | r :: _ ->
        let plan =
          Aitia.Causality.flip_plan (Analysis.Flipfeas.context o.trace) r
        in
        let pos iid =
          let rec go i = function
            | [] -> -1
            | x :: rest -> if Iid.equal x iid then i else go (i + 1) rest
          in
          go 0 plan.Hypervisor.Schedule.events
        in
        pos r.second.iid < pos r.first.iid)

(* LIFS restricts preemption candidates to conflicting instructions
   (DPOR, §3.3).  This property validates the reduction: on random
   programs, LIFS at interleaving count <= 1 finds a failure exactly
   when brute-force enumeration of ALL one-preemption schedules —
   preempting at every position, conflicting or not — finds one. *)
let brute_force_one_preemption group =
  let run sched =
    Hypervisor.Controller.run (Ksim.Machine.create group)
      (Hypervisor.Schedule.preemption_policy sched)
  in
  let serials = [ [ 0; 1 ]; [ 1; 0 ] ] in
  let serial_outcomes =
    List.map (fun o -> (Hypervisor.Schedule.serial o, run (Hypervisor.Schedule.serial o))) serials
  in
  if
    List.exists
      (fun (_, (o : Hypervisor.Controller.outcome)) ->
        Hypervisor.Controller.is_failure o)
      serial_outcomes
  then true
  else
    List.exists
      (fun ((sched : Hypervisor.Schedule.preemption),
            (o : Hypervisor.Controller.outcome)) ->
        List.exists
          (fun (e : Ksim.Machine.event) ->
            List.exists
              (fun u ->
                u <> e.iid.Iid.tid
                &&
                let cand =
                  { sched with
                    Hypervisor.Schedule.switches =
                      [ { Hypervisor.Schedule.after = e.iid; switch_to = u } ]
                  }
                in
                Hypervisor.Controller.is_failure (run cand))
              [ 0; 1 ])
          o.trace)
      serial_outcomes

let prop_lifs_matches_brute_force =
  QCheck.Test.make ~count:150
    ~name:"LIFS (conflicting-instruction candidates) = brute force at k<=1"
    (QCheck.make
       ~print:(fun g -> g.Ksim.Program.group_name)
       gen_failing_group)
    (fun group ->
      let brute = brute_force_one_preemption group in
      let vm = Hypervisor.Vm.create group in
      let lifs =
        Aitia.Lifs.search ~max_interleavings:1 vm ~target:(fun _ -> true) ()
      in
      (lifs.found <> None) = brute)

(* The same reduction validated one level deeper: exhaustive enumeration
   of ALL two-preemption schedules (every pair of positions, conflicting
   or not) agrees with LIFS at interleaving count <= 2.  Kept to tiny
   programs: brute force is quadratic in the trace. *)
let brute_force_two_preemptions group =
  let run sched =
    Hypervisor.Controller.run (Ksim.Machine.create group)
      (Hypervisor.Schedule.preemption_policy sched)
  in
  let extend_all (sched, (o : Hypervisor.Controller.outcome)) =
    List.concat_map
      (fun (e : Ksim.Machine.event) ->
        List.filter_map
          (fun u ->
            if u = e.iid.Iid.tid then None
            else
              Some
                { sched with
                  Hypervisor.Schedule.switches =
                    sched.Hypervisor.Schedule.switches
                    @ [ { Hypervisor.Schedule.after = e.iid; switch_to = u } ]
                })
          [ 0; 1 ])
      o.trace
  in
  let rec search frontier depth =
    let outcomes = List.map (fun s -> (s, run s)) frontier in
    if
      List.exists
        (fun (_, o) -> Hypervisor.Controller.is_failure o)
        outcomes
    then true
    else if depth >= 2 then false
    else
      (* only extend after the last existing switch has fired *)
      let next =
        List.concat_map
          (fun ((sched : Hypervisor.Schedule.preemption), o) ->
            match List.rev sched.switches with
            | [] -> extend_all (sched, o)
            | { after; _ } :: _ ->
              let fired = ref false in
              let tail =
                List.filter
                  (fun (e : Ksim.Machine.event) ->
                    if !fired then true
                    else (
                      if Ksim.Access.Iid.equal e.iid after then fired := true;
                      false))
                  o.Hypervisor.Controller.trace
              in
              extend_all (sched, { o with trace = tail }))
          outcomes
      in
      search next (depth + 1)
  in
  search
    [ Hypervisor.Schedule.serial [ 0; 1 ];
      Hypervisor.Schedule.serial [ 1; 0 ] ]
    0

let gen_tiny_failing_group : Ksim.Program.group QCheck.Gen.t =
  let open QCheck.Gen in
  let tiny prefix =
    let* n = int_range 1 3 in
    let* base =
      let rec build i acc =
        if i >= n then return (List.rev acc)
        else
          let* gvar = oneofl globals in
          let* k = int_range 0 1 in
          let* v = int_range 0 2 in
          let instr =
            if k = 0 then load (Fmt.str "%s%d" prefix i) "r" (g gvar)
            else store (Fmt.str "%s%d" prefix i) (g gvar) (cint v)
          in
          build (i + 1) (instr :: acc)
      in
      build 0 []
    in
    let* gvar = oneofl globals in
    let* v = int_range 1 2 in
    return
      (base
      @ [ load (prefix ^ "_chk_ld") "r" (g gvar);
          bug_on (prefix ^ "_chk") (Eq (reg "r", cint v)) ])
  in
  let* pa = tiny "a" in
  let* pb = tiny "b" in
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program =
        Ksim.Program.make ~name
          (assign (name ^ "_init") "r" (cint 0) :: instrs);
      resources = [] }
  in
  return
    (Ksim.Program.group ~name:"prop-tiny"
       ~globals:(List.map (fun gv -> (gv, Ksim.Value.Int 0)) globals)
       [ thread "A" pa; thread "B" pb ])

let prop_lifs_matches_brute_force_k2 =
  QCheck.Test.make ~count:60
    ~name:"LIFS = brute force at k<=2 (tiny programs)"
    (QCheck.make
       ~print:(fun g -> g.Ksim.Program.group_name)
       gen_tiny_failing_group)
    (fun group ->
      let brute = brute_force_two_preemptions group in
      let vm = Hypervisor.Vm.create group in
      let lifs =
        Aitia.Lifs.search ~max_interleavings:2 vm ~target:(fun _ -> true) ()
      in
      (lifs.found <> None) = brute)

(* "LIFS produces an instruction sequence that deterministically causes
   a concurrency failure" (§3.3): replaying the found schedule must
   reproduce the same failure. *)
let prop_failing_schedule_replays =
  QCheck.Test.make ~count:150
    ~name:"the failure-causing schedule replays deterministically"
    (QCheck.make
       ~print:(fun g -> g.Ksim.Program.group_name)
       gen_failing_group)
    (fun group ->
      let vm = Hypervisor.Vm.create group in
      let lifs =
        Aitia.Lifs.search ~max_interleavings:2 vm ~target:(fun _ -> true) ()
      in
      match lifs.found with
      | None -> QCheck.assume_fail ()
      | Some s -> (
        let replay =
          Hypervisor.Controller.run (Ksim.Machine.create group)
            (Hypervisor.Schedule.preemption_policy s.schedule)
        in
        match replay.verdict with
        | Hypervisor.Controller.Failed f -> Ksim.Failure.same_bug f s.failure
        | _ -> false))

(* Causality Analysis "does not have false-positives; it excludes all
   benign races" (§3.4): every reported root cause's flip really
   survived, and every benign race's flip really still failed. *)
let prop_ca_verdicts_are_witnessed =
  QCheck.Test.make ~count:100
    ~name:"every CA verdict is witnessed by its flip run"
    (QCheck.make
       ~print:(fun g -> g.Ksim.Program.group_name)
       gen_failing_group)
    (fun group ->
      let vm = Hypervisor.Vm.create group in
      let lifs =
        Aitia.Lifs.search ~max_interleavings:2 vm ~target:(fun _ -> true) ()
      in
      match lifs.found with
      | None -> QCheck.assume_fail ()
      | Some s ->
        let ca_vm = Hypervisor.Vm.create group in
        let ca =
          Aitia.Causality.analyze ca_vm ~failing:s.outcome ~races:s.races ()
        in
        List.for_all
          (fun (t : Aitia.Causality.tested) ->
            match t.flip_verdict with
            | None -> false (* no static pruning by default *)
            | Some v -> (
              match t.verdict, v with
              | Aitia.Causality.Root_cause, Hypervisor.Controller.Completed
                ->
                true
              | Aitia.Causality.Benign,
                ( Hypervisor.Controller.Failed _
                | Hypervisor.Controller.Deadlock
                | Hypervisor.Controller.Step_limit ) ->
                true
              | _, _ -> false))
          ca.tested)

(* Failing groups with noise around the failure.  Every thread reads,
   writes and copies a few noise globals and may carry a gadget that
   loads a noise global and branches on it over a store to the failure's
   global [g0]; A stores 1 to [g0] and B, last in the group, asserts
   that [g0] is not 1.  Many races lie off the failure slice, and a
   reordered noise read can steer a gadget into the store the failing
   run skipped, which only the taint walk sees. *)
let gen_noisy_failing_group : Ksim.Program.group QCheck.Gen.t =
  let open QCheck.Gen in
  let noise = [ "n0"; "n1"; "n2" ] in
  let gen_noise ~prefix n =
    flatten_l
      (List.init n (fun i ->
           let label = Fmt.str "%s%d" prefix i in
           let* k = int_range 0 6 in
           let* gvar = oneofl noise in
           let* v = int_range 0 2 in
           match k with
           | 0 | 1 -> return (load label "t" (g gvar))
           | 2 | 3 -> return (store label (g gvar) (cint v))
           | 4 -> return (store label (g gvar) (reg "t"))
           | 5 -> return (store label (g "g0") (cint v))
           | _ -> return (nop label)))
  in
  let gen_gadget ~prefix =
    let* gvar = oneofl noise and* v = int_range 0 2 and* w = int_range 0 2 in
    let* on = bool in
    let l x = prefix ^ x in
    return
      (if not on then []
       else
         [ load (l "_gl") "t" (g gvar);
           branch_if (l "_gb") (Eq (reg "t", cint v)) (l "_gx");
           store (l "_gs") (g "g0") (cint w);
           nop (l "_gx") ])
  in
  let gen_thread ~prefix ~last =
    let* n1 = int_range 0 3 and* n2 = int_range 0 3 in
    let* pre = gen_noise ~prefix:(prefix ^ "p") n1 in
    let* gadget = gen_gadget ~prefix in
    let* post = gen_noise ~prefix:(prefix ^ "q") n2 in
    return (pre @ gadget @ post @ last)
  in
  let* a =
    gen_thread ~prefix:"a" ~last:[ store "a_g0" (g "g0") (cint 1) ]
  in
  let* c = gen_thread ~prefix:"c" ~last:[] in
  let* b =
    gen_thread ~prefix:"b"
      ~last:
        [ load "b_ld" "r" (g "g0"); bug_on "b_chk" (Eq (reg "r", cint 1)) ]
  in
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program =
        Ksim.Program.make ~name
          (assign (name ^ "_init") "t" (cint 0) :: instrs);
      resources = [] }
  in
  return
    (Ksim.Program.group ~name:"prop-noisy-fail"
       ~globals:(List.map (fun gv -> (gv, Ksim.Value.Int 0)) ("g0" :: noise))
       [ thread "A" a; thread "C" c; thread "B" b ])

(* Flip-feasibility soundness: a flip Causality Analysis skips under
   [`Invariants] is one whose re-run provably cannot complete.  Run every
   pruned flip's plan on a fresh VM anyway and check that it does not
   complete.  The taint walk starts at the flip window, so this also
   guards that start.  The property must not hold vacuously: across the
   generated groups at least one pruned flip has to be executed. *)
let test_pruned_flips_never_complete () =
  let executed = ref 0 in
  let prop =
    QCheck.Test.make ~count:150
      ~name:"statically pruned flips never complete when run"
      (QCheck.make
         ~print:(fun g -> g.Ksim.Program.group_name)
         gen_noisy_failing_group)
      (fun group ->
        let vm = Hypervisor.Vm.create group in
        let lifs =
          Aitia.Lifs.search ~max_interleavings:2 vm ~target:(fun _ -> true)
            ()
        in
        match lifs.found with
        | None -> QCheck.assume_fail ()
        | Some s ->
          let ca =
            Aitia.Causality.analyze ~prune:`Invariants
              (Hypervisor.Vm.create group) ~failing:s.outcome ~races:s.races
              ()
          in
          let ctx = Analysis.Flipfeas.context s.outcome.trace in
          List.for_all
            (fun (t : Aitia.Causality.tested) ->
              t.pruned = None
              ||
              let run =
                Aitia.Executor.run_plan (Hypervisor.Vm.create group)
                  (Aitia.Causality.flip_plan ctx t.race)
              in
              incr executed;
              run.outcome.verdict <> Hypervisor.Controller.Completed)
            ca.tested)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 31 |]) prop;
  Alcotest.(check bool)
    (Fmt.str "pruned flips executed (%d)" !executed)
    true (!executed > 0)

(* --- static analysis soundness ---------------------------------------------- *)

(* Straight-line programs whose accesses are randomly wrapped in
   balanced lock blocks over a small lock pool. *)
let locks = [ "m0"; "m1" ]

let gen_locked_program ~prefix : Ksim.Program.labeled list QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_blocks = int_range 1 4 in
  let gen_access j =
    let label = Fmt.str "%s%d" prefix j in
    let* gvar = oneofl globals in
    let* k = int_range 0 1 in
    if k = 0 then return (load label "r" (g gvar))
    else
      let* v = int_range 0 9 in
      return (store label (g gvar) (cint v))
  in
  let gen_block b =
    let* m = int_range 1 3 in
    let* accesses =
      flatten_l (List.init m (fun j -> gen_access ((b * 10) + j)))
    in
    let* lk = opt (oneofl locks) in
    match lk with
    | None -> return accesses
    | Some l ->
      return
        ((lock (Fmt.str "%sL%d" prefix b) l :: accesses)
        @ [ unlock (Fmt.str "%sU%d" prefix b) l ])
  in
  let* blocks = flatten_l (List.init n_blocks gen_block) in
  return (List.concat blocks)

let gen_locked_group : Ksim.Program.group QCheck.Gen.t =
  let open QCheck.Gen in
  let* pa = gen_locked_program ~prefix:"a" in
  let* pb = gen_locked_program ~prefix:"b" in
  let thread name instrs =
    { Ksim.Program.spec_name = name;
      context = Ksim.Program.Syscall { call = name; sysno = 0 };
      program = Ksim.Program.make ~name instrs;
      resources = [] }
  in
  return
    (Ksim.Program.group ~name:"prop-locks" ~locks
       ~globals:(List.map (fun gv -> (gv, Ksim.Value.Int 0)) globals)
       [ thread "A" pa; thread "B" pb ])

(* Lockset soundness (the Eraser invariant): a pair the static analysis
   classifies Guarded holds a common lock in every execution, so any
   dynamic race between those two sites must be a critical-section-order
   pair — never a lock-free data race. *)
let prop_guarded_pairs_never_data_race =
  QCheck.Test.make ~count:300
    ~name:"statically Guarded pairs never data-race dynamically"
    (QCheck.make
       ~print:(fun (grp, seed) ->
         Fmt.str "group %s, seed %d" grp.Ksim.Program.group_name seed)
       QCheck.Gen.(pair gen_locked_group gen_seed))
    (fun (group, seed) ->
      let hints =
        Analysis.Summary.hints (Analysis.Candidates.analyze group)
      in
      let o = random_run group seed in
      let site (a : Ksim.Access.t) =
        (Ksim.Machine.thread_base o.final a.iid.Iid.tid, a.iid.Iid.label)
      in
      List.for_all
        (fun (r : Aitia.Race.t) ->
          match
            Analysis.Summary.classify hints ~a:(site r.first)
              ~b:(site r.second)
          with
          | Some Analysis.Candidates.Guarded -> Aitia.Race.is_cs_order r
          | Some Analysis.Candidates.Unguarded
          | Some Analysis.Candidates.Ambiguous -> true
          | None ->
            (* a race the static pass missed would be unsound *)
            false)
        (Aitia.Race.of_trace o.trace))

(* --- the preemption policy against its specification ------------------------ *)

module Schedule = Hypervisor.Schedule
module Controller = Hypervisor.Controller

(* The preemption policy in its plainest form, kept as the
   specification: every call builds the runnable set, re-derives the
   run queue from the machine's full thread list and looks its switch
   trigger up by label, and the prologue wrapper re-checks every
   prologue thread at every step. *)
let spec_preemption_policy ~prologue (p : Schedule.preemption) :
    Controller.policy =
  let queue = ref p.order in
  let pending = ref p.switches in
  let insert_after m parent tid q =
    let is_child y = Ksim.Machine.thread_parent m y = Some parent in
    let rec go = function
      | [] -> [ tid ]
      | x :: rest when x = parent ->
        let rec skip_siblings acc = function
          | y :: more when is_child y -> skip_siblings (y :: acc) more
          | remaining -> List.rev_append acc (tid :: remaining)
        in
        x :: skip_siblings [] rest
      | x :: rest -> x :: go rest
    in
    go q
  in
  let policy m runnable =
    let known = !queue in
    List.iter
      (fun t ->
        if not (List.mem t known) then
          match Ksim.Machine.thread_parent m t with
          | Some parent -> queue := insert_after m parent t !queue
          | None -> queue := !queue @ [ t ])
      (Ksim.Machine.thread_ids m);
    (match !pending with
    | { Schedule.after; switch_to } :: rest ->
      let tid = after.Iid.tid in
      if
        Ksim.Machine.has_thread m tid
        && Ksim.Machine.occurrences m tid after.Iid.label >= after.Iid.occ
      then (
        pending := rest;
        queue := switch_to :: List.filter (fun x -> x <> switch_to) !queue)
    | [] -> ());
    List.find_opt (fun t -> List.mem t runnable) !queue
  in
  fun m ->
    let runnable = Ksim.Machine.runnable m in
    let rec pick = function
      | [] -> policy m runnable
      | tid :: rest ->
        if Ksim.Machine.is_done m tid then pick rest
        else if List.mem tid runnable then Some tid
        else None
    in
    pick prologue

(* A run's observable result: the executed iids and the verdict, or the
   model error that stopped it. *)
let run_result engine group policy =
  match Controller.run (Ksim.Engine.boot engine group) policy with
  | o ->
    Ok
      ( iids_of o,
        Fmt.str "%a" Controller.pp_verdict o.verdict )
  | exception Ksim.Machine.Model_error msg -> Error msg

(* Generated programs with locks and kthread spawns; thread A is a
   prologue thread, the others start in a random order, and up to three
   switches fire after instructions of a serial run, to any thread id
   (spawned ones and one past the last included). *)
let prop_preemption_policy_matches_spec =
  QCheck.Test.make ~count:200
    ~name:"preemption policy with prologue == re-deriving specification"
    (QCheck.make
       ~print:(fun (g, seed) ->
         Fmt.str "seed %d@.%s" seed (Oracle_gen.render_group g))
       QCheck.Gen.(pair Oracle_gen.gen_engine_group gen_seed))
    (fun (group, seed) ->
      let st = Random.State.make [| seed |] in
      let n_top = List.length group.Ksim.Program.threads in
      let prologue = [ 0 ] in
      let order =
        List.map snd
          (List.sort compare
             (List.init (n_top - 1) (fun i -> (Random.State.bits st, i + 1))))
      in
      let serial = Schedule.serial order in
      match Controller.run (Ksim.Engine.boot Ksim.Engine.Reference group)
              (spec_preemption_policy ~prologue serial) with
      | exception Ksim.Machine.Model_error _ -> QCheck.assume_fail ()
      | o ->
        let events = Array.of_list o.trace in
        let n_threads = List.length (Ksim.Machine.thread_ids o.final) in
        let switches =
          if Array.length events = 0 then []
          else
            List.init (Random.State.int st 4) (fun _ ->
                let e = events.(Random.State.int st (Array.length events)) in
                { Schedule.after = e.Ksim.Machine.iid;
                  switch_to = Random.State.int st (n_threads + 1) })
        in
        let sched = { serial with Schedule.switches } in
        List.for_all
          (fun engine ->
            run_result engine group
              (Schedule.with_prologue prologue
                 (Schedule.preemption_policy sched))
            = run_result engine group (spec_preemption_policy ~prologue sched))
          [ Ksim.Engine.Reference; Ksim.Engine.Compiled ])

let () =
  Alcotest.run "props"
    [ ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ prop_determinism; prop_persistence; prop_races_well_formed;
            prop_plan_replay; prop_race_keys_unique; prop_permutations;
            prop_location_sequences_sorted; prop_rng_int_bounds;
            prop_rng_shuffle_permutes; prop_flip_plan_preserves_events;
            prop_flip_plan_inverts_order; prop_lifs_matches_brute_force;
            prop_lifs_matches_brute_force_k2; prop_failing_schedule_replays;
            prop_ca_verdicts_are_witnessed;
            prop_guarded_pairs_never_data_race;
            prop_preemption_policy_matches_spec ] );
      ( "flip-feasibility",
        [ Alcotest.test_case "pruned flips never complete" `Quick
            test_pruned_flips_never_complete ] ) ]
