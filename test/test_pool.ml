(* Worker-pool tests: work-stealing units (ordering, exhaustion,
   exception propagation), mutual exclusion through the backend lock,
   qcheck properties that no worker count changes a pooled result and
   that the snapshot cache never changes a diagnosis, chain and
   per-flip verdict parity between sequential and pooled (batch-style)
   passes over every corpus bug, and the shared snapshot cache under
   contention — including the generation counter that closes the
   hit→store window. *)

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

(* Everything a diagnosis decides, rendered comparable; simulated time
   and host time are deliberately excluded (the snapshot cache changes
   both). *)
let diag_fingerprint ?snapshot_cache ~prune (bug : Bugs.Bug.t) =
  let r =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings ~prune
      ?snapshot_cache (bug.case ())
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
    ~name:"a cached diagnosis is chain- and verdict-identical to uncached"
    (QCheck.make
       ~print:(fun (i, (name, _), snapshot_cache) ->
         Fmt.str "%s prune=%s snapshot_cache=%b" corpus.(i).id name
           snapshot_cache)
       QCheck.Gen.(
         triple
           (int_range 0 (Array.length corpus - 1))
           (oneofl prunes) bool))
    (fun (i, (_, prune), snapshot_cache) ->
      diag_fingerprint ~prune corpus.(i)
      = diag_fingerprint ~snapshot_cache ~prune corpus.(i))

(* Every corpus bug, two ways: sequential, and one batch-style pass
   fanning the whole corpus out over a 4-worker pool, one diagnosis per
   worker.  The pooled pass runs once, shared by the per-bug cases. *)
let pooled_corpus =
  lazy
    (Pool.map_list (Pool.create ~jobs:4)
       (diag_fingerprint ~prune:`None)
       (Array.to_list corpus))

let test_corpus_parity i () =
  checkb "pooled pass is fingerprint-identical to a sequential one" true
    (List.nth (Lazy.force pooled_corpus) i
    = diag_fingerprint ~prune:`None corpus.(i))

(* --- shared snapshot cache under contention ------------------------------ *)

(* A search's result with every run it executed, in order, seen
   through [on_run]. *)
let lifs_fingerprint search =
  let runs = ref [] in
  let on_run s (o : Hypervisor.Controller.outcome) =
    runs :=
      ( Hypervisor.Schedule.preemption_key s,
        Fmt.str "%a" Hypervisor.Controller.pp_verdict o.verdict )
      :: !runs
  in
  let (r : Aitia.Lifs.result) = search ~on_run in
  ( (match r.found with
    | Some s -> Hypervisor.Schedule.preemption_key s.schedule
    | None -> "-"),
    r.stats.schedules, r.stats.pruned, List.rev !runs )

(* Four searches of the same slice share one cache under a 4-worker
   pool (every run stores into and restores from it concurrently); each
   must be fingerprint-identical to the plain, uncached one. *)
let test_shared_cache_contention (bug : Bugs.Bug.t) () =
  let case = bug.case () in
  let crash = Trace.History.crash case.history in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | None -> Alcotest.fail "slice not realizable"
  | Some (group, prologue) ->
    let search ?snapshots () =
      let vm = Hypervisor.Vm.create group in
      lifs_fingerprint (fun ~on_run ->
          Aitia.Lifs.search ?max_interleavings:bug.max_interleavings
            ~prologue ?snapshots ~on_run vm
            ~target:(Trace.Crash.matches crash) ())
    in
    let plain = search () in
    let cache = Hypervisor.Snapshots.create () in
    let shared =
      Pool.map_list (Pool.create ~jobs:4)
        (fun () -> search ~snapshots:cache ())
        [ (); (); (); () ]
    in
    List.iteri
      (fun i fp ->
        checkb
          (Fmt.str "search %d on the shared cache is fingerprint-identical" i)
          true (fp = plain))
      shared;
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
