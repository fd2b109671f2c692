(* Worker-pool tests: work-stealing units (ordering, exhaustion,
   exception propagation), mutual exclusion through the backend lock,
   the ordered runner's merge order, stop point and decline rule,
   qcheck properties that no worker count ever changes a merged
   result, chain and per-flip verdict parity between sequential,
   intra-diagnosis (--jobs 4) and pooled diagnoses on every corpus bug,
   and shared snapshot-cache behaviour under contention —
   including the generation counter that closes the hit→store window. *)

module Pool = Hypervisor.Pool

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- work-stealing units ------------------------------------------------- *)

let test_empty () =
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs in
      checki "no tasks, no results" 0 (Array.length (Pool.run p (fun i -> i) 0));
      checkb "empty map" true (Pool.map_list p (fun x -> x) [] = []))
    [ 1; 4 ]

let test_single_worker_order () =
  let p = Pool.create ~jobs:1 in
  checkb "jobs=1 keeps index order" true
    (Pool.run p (fun i -> 2 * i) 7 = Array.init 7 (fun i -> 2 * i))

let test_more_tasks_than_workers () =
  let p = Pool.create ~jobs:3 in
  let ran = Array.make 100 0 in
  let results =
    Pool.run p
      (fun i ->
        ran.(i) <- ran.(i) + 1;
        i * i)
      100
  in
  checkb "100 tasks on 3 workers, results in index order" true
    (results = Array.init 100 (fun i -> i * i));
  (* every task ran exactly once — no steal duplicated or dropped one
     (workers write disjoint slots, and the joins publish the writes) *)
  Array.iteri (fun i n -> checki (Fmt.str "task %d ran once" i) 1 n) ran

let test_exception_propagation () =
  let p = Pool.create ~jobs:4 in
  (* failing indices 5, 12, 19: the pool must re-raise the lowest one
     so error reporting is deterministic under any interleaving *)
  Alcotest.check_raises "lowest failing index wins" (Failure "boom-5")
    (fun () ->
      ignore
        (Pool.run p
           (fun i ->
             if i mod 7 = 5 then failwith (Fmt.str "boom-%d" i) else i)
           20))

let test_map_list () =
  let p = Pool.create ~jobs:4 in
  let words = [ "least"; "interleaving"; "first"; "search" ] in
  checkb "map_list preserves order" true
    (Pool.map_list p String.capitalize_ascii words
    = List.map String.capitalize_ascii words)

let test_backend_sane () =
  checkb "backend names the build variant" true
    (List.mem Pool.backend [ "domains"; "sequential" ]);
  checkb "parallel_available matches the backend" true
    (Pool.parallel_available = (Pool.backend = "domains"));
  checkb "default_jobs is positive" true (Pool.default_jobs () >= 1);
  Alcotest.check_raises "jobs < 1 is rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

(* --- backend lock -------------------------------------------------------- *)

let test_lock_mutual_exclusion () =
  let lock = Pool.Lock.create () in
  let counter = ref 0 in
  let p = Pool.create ~jobs:4 in
  ignore
    (Pool.run p
       (fun _ ->
         for _ = 1 to 5_000 do
           Pool.Lock.protect lock (fun () -> incr counter)
         done)
       8);
  checki "no increment lost under contention" (8 * 5_000) !counter

(* --- qcheck: worker count never changes a merged result ------------------ *)

let prop_pool_order =
  QCheck.Test.make ~count:100
    ~name:"pool run/map results are index-ordered for any worker count"
    (QCheck.make
       ~print:(fun (l, jobs) ->
         Fmt.str "jobs=%d over %a" jobs Fmt.(Dump.list int) l)
       QCheck.Gen.(
         pair (list_size (int_range 0 50) small_nat) (int_range 1 6)))
    (fun (l, jobs) ->
      let p = Pool.create ~jobs in
      let f x = (x * 31) + 7 in
      let n = List.length l in
      Pool.map_list p f l = List.map f l
      && Pool.run p (fun i -> i * i) n = Array.init n (fun i -> i * i))

(* --- the ordered runner --------------------------------------------------- *)

(* A synthetic stream: every third item is a result already known, the
   rest are schedules whose result is ten times the schedule; the merge
   stops at result 170 (schedule 17).  [pulled] counts forced items. *)
let runner_items pulled =
  Seq.map
    (fun i ->
      incr pulled;
      if i mod 3 = 0 then Aitia.Executor.Known (-i) else Aitia.Executor.Run i)
    (Seq.init 60 Fun.id)

let stop_at = 170

let run_ordered ?pool vm =
  let pulled = ref 0 and merged = ref [] and execs = Atomic.make [] in
  let exec wvm s =
    let rec push () =
      let old = Atomic.get execs in
      if not (Atomic.compare_and_set execs old ((s, wvm) :: old)) then push ()
    in
    push ();
    10 * s
  in
  let merge r =
    merged := r :: !merged;
    if r = stop_at then Aitia.Executor.Stop else Aitia.Executor.Continue
  in
  let discarded =
    Aitia.Executor.ordered ?pool vm ~exec ~merge:(Until merge)
      (runner_items pulled)
  in
  (List.rev !merged, List.rev (Atomic.get execs), !pulled, discarded)

let expected_merges =
  List.init 18 (fun i -> if i mod 3 = 0 then -i else 10 * i)

let runner_vm ?faults () =
  Hypervisor.Vm.create ?faults (Bugs.Fig1_nullderef.bug.case ()).group

let test_runner_sequential () =
  let vm = runner_vm () in
  let merged, execs, pulled, discarded = run_ordered vm in
  checkb "merges in item order, up to and including the stop" true
    (merged = expected_merges);
  checkb "the schedules up to the stop ran, in order, on the caller's VM"
    true
    (List.map fst execs
     = List.filter (fun i -> i mod 3 <> 0) (List.init 18 Fun.id)
    && List.for_all (fun (_, w) -> w == vm) execs);
  checki "nothing past the stop is pulled" 18 pulled;
  checki "nothing discarded" 0 discarded

let test_runner_pooled () =
  let vm = runner_vm () in
  let merged, execs, _, discarded =
    run_ordered ~pool:(Pool.create ~jobs:4) vm
  in
  checkb "same merged sequence and stop point as without a pool" true
    (merged = expected_merges);
  checkb "schedules ran on fresh worker guests" true
    (execs <> [] && List.for_all (fun (_, w) -> w != vm) execs);
  (* one wave of 16 schedules covers schedule 17 (the 12th); the four
     after it ran speculatively and were dropped unmerged *)
  checki "runs past the stop discarded" 4 discarded;
  checki "every wave run either merged or discarded" (List.length execs)
    (12 + discarded)

let test_runner_each () =
  let vm = runner_vm () in
  let pulled = ref 0 and merged = ref [] and pulled_at_first = ref (-1) in
  let merge r =
    if !merged = [] then pulled_at_first := !pulled;
    merged := r :: !merged
  in
  let discarded =
    Aitia.Executor.ordered ~pool:(Pool.create ~jobs:4) vm
      ~exec:(fun wvm s -> if wvm == vm then -1000 else 10 * s)
      ~merge:(Each merge) (runner_items pulled)
  in
  checkb "every item merged in order, each schedule on a worker guest" true
    (List.rev !merged
     = List.init 60 (fun i -> if i mod 3 = 0 then -i else 10 * i));
  checki "a merge that cannot stop runs the whole stream as one wave" 60
    !pulled_at_first;
  checki "nothing discarded" 0 discarded

let test_runner_faulted () =
  let faults =
    match Hypervisor.Faults.spec_of_string "rate=0" with
    | Ok spec -> Hypervisor.Faults.create ~seed:1 spec
    | Error e -> Alcotest.fail e
  in
  let vm = runner_vm ~faults () in
  let merged, execs, pulled, discarded =
    run_ordered ~pool:(Pool.create ~jobs:4) vm
  in
  checkb "a faulted VM does not fan out" true
    (List.for_all (fun (_, w) -> w == vm) execs);
  checkb "same merged sequence" true (merged = expected_merges);
  checki "pulled lazily" 18 pulled;
  checki "nothing discarded" 0 discarded

(* Everything a diagnosis decides, rendered comparable; simulated time
   and host time are deliberately excluded (per-flip guests lose the
   consecutive-run reboot-avoidance credit — documented divergence). *)
let diag_fingerprint ?snapshot_cache ~jobs ~prune (bug : Bugs.Bug.t) =
  let r =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings ~jobs
      ~prune ?snapshot_cache (bug.case ())
  in
  let chain =
    match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"
  in
  let flips =
    match r.causality with
    | None -> []
    | Some ca ->
      List.map
        (fun (t : Aitia.Causality.tested) ->
          Fmt.str "%s=%s%s"
            (Aitia.Race.key t.race)
            (match t.verdict with
            | Aitia.Causality.Root_cause -> "root"
            | Aitia.Causality.Benign -> "benign")
            (match t.pruned with Some p -> "!" ^ p | None -> ""))
        ca.tested
  in
  ( Aitia.Diagnose.reproduced r, chain, flips, r.lifs.stats.schedules,
    r.lifs.stats.pruned, r.slices_tried )

let corpus = Array.of_list (Bugs.Registry.cves @ Bugs.Registry.syzkaller)

let prunes = [ ("none", `None); ("invariants", `Invariants) ]

let prop_chain_parity =
  QCheck.Test.make ~count:10
    ~name:"pooled diagnosis is chain- and verdict-identical to sequential"
    (QCheck.make
       ~print:(fun (i, jobs, (name, _), snapshot_cache) ->
         Fmt.str "%s jobs=%d prune=%s snapshot_cache=%b" corpus.(i).id jobs
           name snapshot_cache)
       QCheck.Gen.(
         quad
           (int_range 0 (Array.length corpus - 1))
           (int_range 2 4) (oneofl prunes) bool))
    (fun (i, jobs, (_, prune), snapshot_cache) ->
      diag_fingerprint ~jobs:1 ~prune corpus.(i)
      = diag_fingerprint ~snapshot_cache ~jobs ~prune corpus.(i))

(* Every corpus bug, three ways: sequential, --jobs 4 inside LIFS and
   Causality Analysis, and one batch-style pass fanning the whole corpus
   out over a 4-worker pool with --jobs 1 inside each diagnosis.  The
   pooled pass runs once, shared by the per-bug cases. *)
let pooled_corpus =
  lazy
    (Pool.map_list (Pool.create ~jobs:4)
       (diag_fingerprint ~jobs:1 ~prune:`None)
       (Array.to_list corpus))

let test_corpus_parity i () =
  let seq = diag_fingerprint ~jobs:1 ~prune:`None corpus.(i) in
  checkb "--jobs 4 is fingerprint-identical to --jobs 1" true
    (diag_fingerprint ~jobs:4 ~prune:`None corpus.(i) = seq);
  checkb "pooled pass is fingerprint-identical to --jobs 1" true
    (List.nth (Lazy.force pooled_corpus) i = seq)

(* --- shared snapshot cache under contention ------------------------------ *)

let lifs_fingerprint (r : Aitia.Lifs.result) =
  ( (match r.found with
    | Some s -> Hypervisor.Schedule.preemption_key s.schedule
    | None -> "-"),
    r.stats.schedules, r.stats.pruned,
    List.map
      (fun (s, (o : Hypervisor.Controller.outcome)) ->
        ( Hypervisor.Schedule.preemption_key s,
          Fmt.str "%a" Hypervisor.Controller.pp_verdict o.verdict ))
      r.runs )

(* N workers hammer one shared cache (every run stores into and
   restores from it concurrently); the search must be fingerprint-
   identical to the plain sequential, uncached one. *)
let test_shared_cache_contention (bug : Bugs.Bug.t) () =
  let case = bug.case () in
  let crash = Trace.History.crash case.history in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | None -> Alcotest.fail "slice not realizable"
  | Some (group, prologue) ->
    let search ?pool ?snapshots () =
      let vm = Hypervisor.Vm.create group in
      Aitia.Lifs.search ?max_interleavings:bug.max_interleavings ~prologue
        ?pool ?snapshots vm
        ~target:(Trace.Crash.matches crash) ()
    in
    let plain = search () in
    let cache = Hypervisor.Snapshots.create () in
    let pooled =
      search ~pool:(Pool.create ~jobs:4) ~snapshots:cache ()
    in
    checkb "pooled+shared-cache search is fingerprint-identical" true
      (lifs_fingerprint plain = lifs_fingerprint pooled);
    checkb "the shared cache was actually exercised" true
      (Hypervisor.Snapshots.cached_vectors cache > 0)

(* The hit→store window: a store whose restored prefix came from a
   vector poisoned in between must be dropped (stale generation), while
   stores under a live generation or with an evicted/absent parent
   proceed. *)
let test_generation_drop () =
  let group = (Bugs.Fig1_nullderef.bug.case ()).group in
  let m0 = Ksim.Machine.create group in
  let tid = List.hd (Ksim.Machine.thread_ids m0) in
  let machine, ev =
    match Ksim.Machine.step m0 tid with
    | Ok r -> r
    | Error _ -> Alcotest.fail "first step refused"
  in
  let snap =
    { Hypervisor.Snapshots.machine; trace_rev = [ ev ]; steps = 1;
      queue = [ tid ]; pending = [] }
  in
  let t = Hypervisor.Snapshots.create () in
  Hypervisor.Snapshots.store t ~key:"p" ~base:[||] ~suffix_rev:[ snap ] ();
  checki "parent stored" 1 (Hypervisor.Snapshots.cached_vectors t);
  (* generation 0 is live: the child built on p's prefix is accepted *)
  Hypervisor.Snapshots.store t ~key:"c1" ~parent:("p", 0) ~base:[||]
    ~suffix_rev:[ snap ] ();
  checki "fresh-generation child stored" 2
    (Hypervisor.Snapshots.cached_vectors t);
  Hypervisor.Snapshots.poison t ~key:"p";
  checki "poisoning counted" 1 (Hypervisor.Snapshots.poisonings t);
  (* generation 0 is now stale: this child restored its prefix before
     the poisoning and must be dropped *)
  Hypervisor.Snapshots.store t ~key:"c2" ~parent:("p", 0) ~base:[||]
    ~suffix_rev:[ snap ] ();
  checki "stale-generation child dropped" 2
    (Hypervisor.Snapshots.cached_vectors t);
  (* an evicted / absent parent is benign, not suspect *)
  Hypervisor.Snapshots.store t ~key:"c3" ~parent:("gone", 0) ~base:[||]
    ~suffix_rev:[ snap ] ();
  checki "absent-parent child stored" 3
    (Hypervisor.Snapshots.cached_vectors t)

(* --- registration -------------------------------------------------------- *)

let () =
  Alcotest.run "pool"
    [ ( "stealing",
        [ Alcotest.test_case "empty queue" `Quick test_empty;
          Alcotest.test_case "single worker order" `Quick
            test_single_worker_order;
          Alcotest.test_case "more tasks than workers" `Quick
            test_more_tasks_than_workers;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "backend sanity" `Quick test_backend_sane ] );
      ( "lock",
        [ Alcotest.test_case "mutual exclusion" `Quick
            test_lock_mutual_exclusion ] );
      ( "runner",
        [ Alcotest.test_case "no pool" `Quick test_runner_sequential;
          Alcotest.test_case "jobs 4" `Quick test_runner_pooled;
          Alcotest.test_case "jobs 4, merge cannot stop" `Quick
            test_runner_each;
          Alcotest.test_case "faulted VM" `Quick test_runner_faulted ] );
      ( "shared-cache",
        [ Alcotest.test_case "contention (fig5)" `Quick
            (test_shared_cache_contention Bugs.Fig5_search.bug);
          Alcotest.test_case "contention (cve-2017-15649)" `Quick
            (test_shared_cache_contention Bugs.Cve_2017_15649.bug);
          Alcotest.test_case "generation store-drop" `Quick
            test_generation_drop ] );
      ( "corpus-parity",
        List.mapi
          (fun i (bug : Bugs.Bug.t) ->
            Alcotest.test_case bug.id `Quick (test_corpus_parity i))
          (Array.to_list corpus) );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pool_order; prop_chain_parity ] ) ]
