(* Worker-pool tests: work-stealing units (ordering, exhaustion,
   exception propagation, worker domains reused across batches), each
   task handed out once under the queue lock, qcheck properties that no
   worker count changes a pooled result and that the engine never
   changes a diagnosis, and chain and per-flip verdict parity between
   sequential and pooled (batch-style) passes over every corpus bug. *)

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

(* Worker domains outlive a batch and serve the next one, also after a
   batch whose tasks raised. *)
let test_batches_reuse_workers () =
  let p = Pool.create ~jobs:3 in
  for round = 1 to 20 do
    if round = 10 then
      Alcotest.check_raises "a failing batch" (Failure "boom") (fun () ->
          ignore (Pool.run p (fun _ -> failwith "boom") 9));
    checkb
      (Fmt.str "batch %d in index order" round)
      true
      (Pool.run p (fun i -> i + round) 9 = Array.init 9 (fun i -> i + round))
  done

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

(* --- queue lock -------------------------------------------------------- *)

(* The per-worker queues sit under one lock: under contention, with
   uneven tasks so idle workers steal, every task must still be handed
   out exactly once. *)
let test_lock_mutual_exclusion () =
  let n = 2_000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let p = Pool.create ~jobs:4 in
  let got =
    Pool.map_list p
      (fun i ->
        Atomic.incr hits.(i);
        let spin = ref 0 in
        for _ = 1 to (i mod 7) * 200 do
          spin := Sys.opaque_identity (!spin + 1)
        done;
        i)
      (List.init n Fun.id)
  in
  checkb "results in index order" true (got = List.init n Fun.id);
  checkb "every task ran exactly once" true
    (Array.for_all (fun h -> Atomic.get h = 1) hits)

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
   and host time are deliberately excluded. *)
let diag_fingerprint ?engine ~prune (bug : Bugs.Bug.t) =
  let r =
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings ~prune
      ?engine (bug.case ())
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
    ~name:"a diagnosis is chain- and verdict-identical on both engines"
    (QCheck.make
       ~print:(fun (i, (name, _)) ->
         Fmt.str "%s prune=%s" corpus.(i).id name)
       QCheck.Gen.(
         pair (int_range 0 (Array.length corpus - 1)) (oneofl prunes)))
    (fun (i, (_, prune)) ->
      diag_fingerprint ~engine:Ksim.Engine.Compiled ~prune corpus.(i)
      = diag_fingerprint ~engine:Ksim.Engine.Reference ~prune corpus.(i))

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
          Alcotest.test_case "backend sanity" `Quick test_backend_sane;
          Alcotest.test_case "batches reuse workers" `Quick
            test_batches_reuse_workers ] );
      ( "lock",
        [ Alcotest.test_case "mutual exclusion" `Quick
            test_lock_mutual_exclusion ] );
      ( "corpus-parity",
        List.mapi
          (fun i (bug : Bugs.Bug.t) ->
            Alcotest.test_case bug.id `Quick (test_corpus_parity i))
          (Array.to_list corpus) );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pool_order; prop_chain_parity ] ) ]
