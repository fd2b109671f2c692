(* The diagnosis benchmark: host time for diagnosing the 22 real bugs
   (the 10 CVEs of Table 2 and the 12 Syzkaller failures of Table 3),
   with every chain checked against a recorded reference chain.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --work-dir DIR --reference FILE
     bench.exe --record-reference FILE

   Workloads (one client, closed loop; a pass is all 22 requests):
     corpus        Diagnose.diagnose with default flags
     pruned        the same with prune=invariants order=gain and the
                   snapshot cache
     batch_faults  Batch.run ~jobs:2 over a 22-request manifest, each
                   request with fault_spec rate=0.05, its own fault seed
                   and a journal in a fresh directory

   The seed shuffles request order (corpus, pruned) or the order of a
   fixed table of fault-seed sets (batch_faults); the program only sees
   the resulting cases and manifests.  Pass [p] uses seed set [p mod k]
   and at least [k] passes run, so every count and fraction (taken over
   the first [k] passes) repeats exactly for one seed; timed passes go on
   until [--seconds] have elapsed.  Timings are taken from each request's
   and each seed set's fastest run, which the host's bursts of memory
   contention slow least.

   With --trace 0 the last stdout line carries the end-to-end metrics.
   With --trace 1 untraced and traced passes alternate: the traced ones
   run under a Telemetry.Recorder whose spans and counters are rolled
   up per layer, and the calls the program makes without a span of its
   own (slicing, race extraction, chain building, guest stepping) are
   timed from outside on the reproducing runs. *)

module D = Aitia.Diagnose
module Json = Telemetry.Json
module Sink = Telemetry.Sink
module Recorder = Telemetry.Recorder

type workload = Corpus | Pruned | Batch_faults

let workloads =
  [ ("corpus", Corpus); ("pruned", Pruned); ("batch_faults", Batch_faults) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)
let now = Unix.gettimeofday

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

(* --- arguments ------------------------------------------------------ *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  reference : string;
}

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      Hashtbl.replace tbl key value;
      go rest
    | [] -> ()
    | x :: _ -> fail "unexpected argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  let get key =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None -> fail "missing %s" key
  in
  let int key =
    match int_of_string_opt (get key) with
    | Some n when n >= 0 -> n
    | _ -> fail "%s needs a non-negative integer" key
  in
  match Hashtbl.find_opt tbl "--record-reference" with
  | Some file -> `Record file
  | None ->
    let workload =
      match List.assoc_opt (get "--workload") workloads with
      | Some w -> w
      | None -> fail "unknown workload %S" (get "--workload")
    in
    `Run
      { workload;
        seed = int "--seed";
        seconds = float_of_int (max 1 (int "--seconds"));
        trace =
          (match get "--trace" with
          | "0" -> false
          | "1" -> true
          | v -> fail "--trace must be 0 or 1 (got %S)" v);
        work_dir = get "--work-dir";
        reference = get "--reference" }

(* --- inputs --------------------------------------------------------- *)

let real_bugs = Bugs.Registry.cves @ Bugs.Registry.syzkaller

(* Seed sets per run: request order and fault seeds cycle through them. *)
let seed_sets = function Corpus | Pruned -> 2 | Batch_faults -> 4

let fault_spec = "rate=0.05"
let batch_jobs = 2

(* Fault seeds come from a fixed table that the seed only reorders:
   fresh fault seeds per run moved every request's latency by up to 30%
   from one seed to the next, more than a run's own noise. *)
let fault_seed ~set (bug : Bugs.Bug.t) =
  Hashtbl.hash (set, bug.id) land 0x3fffffff

let shuffle ~seed ~set xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed; set |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type item = { bug : Bugs.Bug.t; case : D.case; fault_seed : int }

type env = {
  items : item list array;  (** per seed set, in request order *)
  manifests : Aitia.Batch.request list array;  (** batch_faults only *)
  by_id : (string, item) Hashtbl.t;
  reference : (string, string) Hashtbl.t;  (** bug id -> chain *)
}

let manifest items =
  let request it =
    Json.obj
      [ ("id", Json.str it.bug.id); ("bug", Json.str it.bug.id);
        ("fault_spec", Json.str fault_spec);
        ("fault_seed", Json.int it.fault_seed) ]
  in
  let doc = Json.arr (List.map request items) in
  match Aitia.Batch.manifest_of_string doc with
  | Ok rqs -> rqs
  | Error e -> fail "manifest rejected: %s" e

let load_reference file =
  let chains =
    match In_channel.with_open_text file In_channel.input_all with
    | s ->
      Option.bind (Result.to_option (Json.of_string s)) (Json.member "chains")
    | exception Sys_error e -> fail "%s" e
  in
  let tbl = Hashtbl.create 32 in
  (match chains with
  | Some (Json.Obj kvs) ->
    List.iter
      (fun (id, v) -> Option.iter (Hashtbl.replace tbl id) (Json.to_str v))
      kvs
  | _ -> fail "%s: no \"chains\" object" file);
  List.iter
    (fun (b : Bugs.Bug.t) ->
      if not (Hashtbl.mem tbl b.id) then fail "%s: no chain for %s" file b.id)
    real_bugs;
  tbl

let make_env (a : args) reference =
  let k = seed_sets a.workload in
  let cases = List.map (fun (b : Bugs.Bug.t) -> (b, b.case ())) real_bugs in
  (* The pool deals a manifest round-robin to its workers, so manifest
     order decides which requests share the two workers; batch_faults
     keeps the registry order and takes only the order of its
     fault-seed sets from the seed. *)
  let table = shuffle ~seed:a.seed ~set:k (List.init k Fun.id) in
  let items =
    Array.init k (fun set ->
        let row = List.nth table set in
        let xs =
          List.map
            (fun (bug, case) ->
              { bug; case; fault_seed = fault_seed ~set:row bug })
            cases
        in
        match a.workload with
        | Corpus | Pruned -> shuffle ~seed:a.seed ~set xs
        | Batch_faults -> xs)
  in
  let by_id = Hashtbl.create 32 in
  List.iter (fun it -> Hashtbl.replace by_id it.bug.id it) items.(0);
  let manifests =
    match a.workload with
    | Batch_faults -> Array.map manifest items
    | Corpus | Pruned -> [||]
  in
  { items; manifests; by_id; reference }

(* --- checking ------------------------------------------------------- *)

(* A rendered chain without the resilience-confidence annotations
   ("[~67%]") that only fault-injected runs print. *)
let strip_confidence s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if i + 1 < n && s.[i] = '[' && s.[i + 1] = '~' then
        match String.index_from_opt s i ']' with
        | Some j -> go (j + 1)
        | None -> Buffer.add_substring b s i (n - i)
      else (
        Buffer.add_char b s.[i];
        go (i + 1))
  in
  go 0;
  Buffer.contents b

(* One request's outcome.  [s_ok]: reproduced with the reference
   chain.  [s_broken]: an error, or a missing or wrong chain the
   program did not flag as degraded.  [s_key] must repeat whenever the
   same request runs again. *)
type sample = {
  s_bug : string;
  s_ms : float;
  s_ok : bool;
  s_degraded : bool;
  s_broken : bool;
  s_key : string;
}

let sample env ~bug ~ms ~errored ~chain ~degraded ~key =
  let ok =
    (not errored)
    &&
    match chain with
    | Some c ->
      String.equal (strip_confidence c) (Hashtbl.find env.reference bug)
    | None -> false
  in
  { s_bug = bug; s_ms = ms; s_ok = ok; s_degraded = degraded;
    s_broken = errored || ((not ok) && not degraded); s_key = key }

(* --- passes --------------------------------------------------------- *)

let sum = List.fold_left ( +. ) 0.

type pass = {
  p_set : int;
  p_wall : float;  (** seconds *)
  p_samples : sample list;
  p_journal_bytes : int;
}

(* The workload's diagnosis of one bug, as a caller of
   [Diagnose.diagnose] would make it; for batch_faults, what [Batch.run]
   does for one request of the manifest. *)
let diagnose wl (it : item) =
  let max_interleavings = it.bug.max_interleavings in
  match wl with
  | Corpus -> D.diagnose ?max_interleavings it.case
  | Pruned ->
    D.diagnose ?max_interleavings ~prune:`Invariants ~order:`Gain
      ~snapshot_cache:true it.case
  | Batch_faults ->
    let spec =
      match Hypervisor.Faults.spec_of_string fault_spec with
      | Ok s -> s
      | Error e -> fail "fault spec: %s" e
    in
    D.diagnose ?max_interleavings
      ~faults:(Hypervisor.Faults.create ~seed:it.fault_seed spec)
      it.case

let report_key (r : D.report) =
  let ca_schedules, ca_instrs =
    match r.causality with
    | Some ca -> (ca.stats.schedules, ca.stats.executed_instrs)
    | None -> (0, 0)
  in
  Printf.sprintf "%d/%d/%d/%s" r.lifs.stats.schedules ca_schedules
    (r.lifs.stats.executed_instrs + ca_instrs)
    (match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-")

(* Each request starts on a collected heap, as in a fresh [aitia
   diagnose] process, so its latency does not carry the previous
   request's garbage; the collection is not timed. *)
let diagnose_pass env wl ~set =
  let samples =
    List.map
      (fun it ->
        Gc.full_major ();
        let t = now () in
        let r = diagnose wl it in
        let ms = (now () -. t) *. 1e3 in
        sample env ~bug:it.bug.id ~ms ~errored:false
          ~chain:(Option.map Aitia.Chain.to_string r.chain)
          ~degraded:r.degraded ~key:(report_key r))
      env.items.(set)
  in
  { p_set = set; p_wall = sum (List.map (fun s -> s.s_ms) samples) /. 1e3;
    p_samples = samples; p_journal_bytes = 0 }

let rec remove_tree path =
  if Sys.is_directory path then (
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path)
  else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755)

(* [Batch.run ~journal_dir] expects the directory to exist — its
   interface says "created if absent", but only the CLI creates it —
   so each pass makes a fresh one. *)
let batch_pass env (a : args) ~set ~jobs =
  let dir = Filename.concat a.work_dir "journals" in
  if Sys.file_exists dir then remove_tree dir;
  mkdir_p dir;
  let resolve id =
    Option.map
      (fun it -> (it.case, it.bug.max_interleavings))
      (Hashtbl.find_opt env.by_id id)
  in
  Gc.full_major ();
  let t0 = now () in
  let summary =
    Aitia.Batch.run ~jobs ~journal_dir:dir ~resolve env.manifests.(set)
  in
  let wall = now () -. t0 in
  let bytes =
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  remove_tree dir;
  let samples =
    List.map
      (fun (o : Aitia.Batch.outcome) ->
        sample env ~bug:o.o_bug ~ms:(o.o_elapsed *. 1e3)
          ~errored:(o.o_exit = 2) ~chain:o.o_chain ~degraded:o.o_degraded
          ~key:
            (Printf.sprintf "%d/%b/%s" o.o_exit o.o_degraded
               (Option.value ~default:"-" o.o_chain)))
      summary.outcomes
  in
  { p_set = set; p_wall = wall; p_samples = samples; p_journal_bytes = bytes }

let run_pass env (a : args) ~set ~jobs =
  match a.workload with
  | Corpus | Pruned -> diagnose_pass env a.workload ~set
  | Batch_faults -> batch_pass env a ~set ~jobs

(* --- statistics ----------------------------------------------------- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median = quantile 0.5
let ratio a b = if b > 0. then a /. b else 0.
let samples passes = List.concat_map (fun p -> p.p_samples) passes

let share pred passes =
  let s = samples passes in
  float_of_int (List.length (List.filter pred s))
  /. float_of_int (max 1 (List.length s))

(* Requests of one seed set must give the same key in every pass. *)
let repeat_violations passes =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun bad p ->
      List.fold_left
        (fun bad s ->
          match Hashtbl.find_opt seen (p.p_set, s.s_bug) with
          | None ->
            Hashtbl.replace seen (p.p_set, s.s_bug) s.s_key;
            bad
          | Some key -> if String.equal key s.s_key then bad else bad + 1)
        bad p.p_samples)
    0 passes

(* The smallest [f] per key over the run. *)
let best key f xs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = key x and v = f x in
      match Hashtbl.find_opt tbl k with
      | Some m when m <= v -> ()
      | _ -> Hashtbl.replace tbl k v)
    xs;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* Host contention comes in bursts of a few seconds that slow a pass by
   up to 70%; the fastest run of each request is what it costs on a
   quiet host, and it repeats from run to run where medians do not.
   [latency_ms q]: the [q]-quantile over distinct requests (seed set,
   bug) of each one's fastest latency. *)
let latency_ms q passes =
  quantile q
    (best fst snd
       (List.concat_map
          (fun p ->
            List.map (fun s -> ((p.p_set, s.s_bug), s.s_ms)) p.p_samples)
          passes))

(* Requests per second over the fastest pass of each seed set. *)
let throughput passes =
  let walls = best (fun p -> p.p_set) (fun p -> p.p_wall) passes in
  float_of_int (List.length real_bugs * List.length walls) /. sum walls

let broken passes =
  List.length (List.filter (fun s -> s.s_broken) (samples passes))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* --- output --------------------------------------------------------- *)

let num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-28s %18.6f %s\n" name v unit)
    metrics;
  let m =
    List.map
      (fun (name, v, unit) ->
        ( name,
          Json.obj [ ("value", num v); ("unit", Json.str unit) ] ))
      metrics
  in
  print_endline
    (Json.obj
       [ ("correct", Json.bool correct); ("attempted", Json.int attempted);
         ("failed", Json.int failed); ("metrics", Json.obj m) ])

(* --- set-up --------------------------------------------------------- *)

(* Case construction, manifests and one warm-up pass, timed together.
   Warm-up results are checked like any other pass. *)
let setup (a : args) reference =
  let t0 = now () in
  let env = make_env a reference in
  let warm = run_pass env a ~set:0 ~jobs:batch_jobs in
  (env, warm, now () -. t0)

(* Rounds [f i set] until [min_rounds] have run and [seconds] have
   elapsed; round [i] uses seed set [i mod k]. *)
let timed_loop (a : args) ~min_rounds f =
  let k = seed_sets a.workload in
  let t0 = now () in
  let rec go i acc =
    if i >= min_rounds && now () -. t0 >= a.seconds then List.rev acc
    else go (i + 1) (f i (i mod k) :: acc)
  in
  go 0 []

(* --- untraced run: end-to-end metrics ------------------------------- *)

(* [setup_s] is the median of set-ups repeated after every fourth pass,
   so that work moved into set-up shows.  Host contention comes in
   bursts of a few seconds: five set-ups in a row fell all inside one
   burst or all outside it, and their median moved 30% from run to run;
   spread over the run, most of them miss the bursts. *)
let run_untraced (a : args) =
  let reference = load_reference a.reference in
  let env, warm, secs = setup a reference in
  let setups = ref [ (warm, secs) ] in
  let passes =
    timed_loop a ~min_rounds:(max 8 (seed_sets a.workload)) (fun i set ->
        if i mod 4 = 3 then (
          let _, warm, secs = setup a reference in
          setups := (warm, secs) :: !setups);
        run_pass env a ~set ~jobs:batch_jobs)
  in
  let warm = List.map fst !setups in
  let setup_s = median (List.map snd !setups) in
  (* one pass of each seed set *)
  let first = List.filteri (fun i _ -> i < seed_sets a.workload) passes in
  let n = List.length (samples passes) in
  let failed = broken (warm @ passes) in
  let violations = repeat_violations (warm @ passes) in
  Printf.printf
    "workload %s, seed %d: %d passes, %d requests timed, %d broken, %d \
     repeat violations\n"
    (workload_name a.workload) a.seed
    (List.length passes) n failed violations;
  Printf.printf "pass seconds: %s\n"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.4f" p.p_wall) passes));
  emit ~correct:(failed = 0 && violations = 0) ~attempted:n ~failed
    [ ("diagnoses_per_s", throughput passes, "1/s");
      ("diagnose_p50_ms", latency_ms 0.5 passes, "ms");
      ("diagnose_p90_ms", latency_ms 0.9 passes, "ms");
      ("ok_frac", share (fun s -> s.s_ok) first, "ratio");
      ("confident_frac", share (fun s -> not s.s_degraded) first, "ratio");
      ("peak_heap_mb", peak_heap_mb (), "MB");
      ("setup_s", setup_s, "s") ]

(* --- traced run: per-layer metrics ---------------------------------- *)

(* Which layer a span's self time belongs to. *)
let layer_of_span = function
  | "controller.run" | "controller.resume" -> "controller.self_ms"
  | "executor.preemption" | "executor.plan" -> "executor.self_ms"
  | "lifs.search" | "lifs.phase" | "lifs.extend" -> "lifs.self_ms"
  | "causality.analyze" -> "causality.self_ms"
  | "causality.flip" -> "causality.flip_ms"
  | "analysis.flipfeas" -> "analysis.flipfeas_ms"
  | "analysis.absdom" -> "analysis.absdom_ms"
  | "analysis.candidates" | "analysis.lockset_mhp" -> "analysis.candidates_ms"
  | "diagnose" | "diagnose.slice" -> "diagnose.self_ms"
  | _ -> "other.self_ms"

let self_layers =
  [ "controller.self_ms"; "executor.self_ms"; "lifs.self_ms";
    "causality.self_ms"; "causality.flip_ms"; "analysis.flipfeas_ms";
    "analysis.absdom_ms"; "analysis.candidates_ms"; "diagnose.self_ms";
    "other.self_ms" ]

(* Self time per layer (a span's duration minus its direct children's)
   and the time covered by top-level spans, in ms.  Spans of one domain
   nest, so a span's parent is the latest-started span one level up. *)
let rollup (spans : Sink.span list) =
  let nodes =
    List.map (fun (sp : Sink.span) -> (sp, ref 0.)) spans
    |> List.stable_sort (fun ((a : Sink.span), _) ((b : Sink.span), _) ->
           match Float.compare a.span_start_us b.span_start_us with
           | 0 -> Int.compare a.span_depth b.span_depth
           | c -> c)
  in
  let latest = Hashtbl.create 8 in
  List.iter
    (fun (((sp : Sink.span), _) as node) ->
      (if sp.span_depth > 0 then
         match Hashtbl.find_opt latest (sp.span_depth - 1) with
         | Some (_, children) -> children := !children +. sp.span_dur_us
         | None -> ());
      Hashtbl.replace latest sp.span_depth node)
    nodes;
  let self = Hashtbl.create 16 in
  let top = ref 0. in
  List.iter
    (fun ((sp : Sink.span), children) ->
      let layer = layer_of_span sp.span_name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt self layer) in
      let self_us = sp.span_dur_us -. !children in
      Hashtbl.replace self layer (prev +. (self_us /. 1e3));
      if sp.span_depth = 0 then top := !top +. (sp.span_dur_us /. 1e3))
    nodes;
  (self, !top)

(* The reproducing run of one request, kept for the calls timed from
   outside. *)
type repro = {
  r_history : Trace.History.t;
  r_group : Ksim.Program.group;
  r_trace : Ksim.Machine.event list;
  r_ca : Aitia.Causality.result;
  r_failure : Ksim.Failure.t;
  r_retained : int;
}

let repro_of (it : item) (r : D.report) =
  match (r.lifs.found, r.causality) with
  | Some success, Some ca ->
    let slice =
      List.find_opt
        (fun s -> Trace.Slicer.threads s = r.slice_threads)
        (Trace.Slicer.slices it.case.history)
    in
    Option.bind slice (fun s -> D.realize it.case s)
    |> Option.map (fun (group, _) ->
           { r_history = it.case.history; r_group = group;
             r_trace = success.outcome.trace; r_ca = ca;
             r_failure = success.failure;
             r_retained =
               List.fold_left
                 (fun acc (_, (o : Hypervisor.Controller.outcome)) ->
                   acc + List.length o.trace)
                 0 r.lifs.runs })
  | _ -> None

(* Mean ms per round of [f], repeating rounds for at least 50 ms. *)
let per_round f =
  let t0 = now () in
  let rec go n =
    f ();
    let dt = now () -. t0 in
    if dt >= 0.05 then dt *. 1e3 /. float_of_int n else go (n + 1)
  in
  go 1

(* Re-execute a reproducing run instruction by instruction on a fresh
   machine.  Returns whether every step succeeded (and, with [check],
   matched the recorded event) and the seconds spent stepping. *)
let replay ?(check = false) (r : repro) =
  let m = Ksim.Engine.boot Ksim.Engine.default r.r_group in
  let rec go m = function
    | [] -> true
    | (ev : Ksim.Machine.event) :: rest -> (
      match Ksim.Engine.step m ev.iid.tid with
      | Ok (m', ev') ->
        ((not check) || Ksim.Access.Iid.equal ev.iid ev'.iid) && go m' rest
      | Error _ -> false)
  in
  let t0 = now () in
  let ok = go m r.r_trace in
  (ok, now () -. t0)

(* Stepping time per instruction over repeated replays of every
   reproducing run, boots excluded. *)
let step_ns repros =
  let steps =
    List.fold_left (fun acc r -> acc + List.length r.r_trace) 0 repros
  in
  let rec go rounds secs =
    if secs >= 0.2 then secs *. 1e9 /. float_of_int (rounds * max 1 steps)
    else
      go (rounds + 1)
        (List.fold_left (fun acc r -> acc +. snd (replay r)) secs repros)
  in
  go 0 0.

let run_traced (a : args) =
  let env, warm, _ = setup a (load_reference a.reference) in
  (* Batch.run fans requests out over pool domains that have no sink
     installed, so their spans are lost: every pass here runs at one
     worker, and batch_faults adds an untraced pass at two workers for
     the pool metrics. *)
  let rounds =
    timed_loop a ~min_rounds:2 (fun i _ ->
        let plain () = run_pass env a ~set:0 ~jobs:1 in
        let traced () =
          let r = Recorder.create () in
          let p =
            Telemetry.Probe.with_sink (Recorder.sink r) (fun () ->
                run_pass env a ~set:0 ~jobs:1)
          in
          (p, r)
        in
        let u, t =
          if i mod 2 = 0 then
            let u = plain () in
            (u, traced ())
          else
            let t = traced () in
            (plain (), t)
        in
        let pool =
          match a.workload with
          | Batch_faults -> [ run_pass env a ~set:0 ~jobs:batch_jobs ]
          | Corpus | Pruned -> []
        in
        (u, t, pool))
  in
  let untraced = List.map (fun (u, _, _) -> u) rounds in
  let tpasses = List.map (fun (_, (p, _), _) -> p) rounds in
  let recorders = List.map (fun (_, (_, r), _) -> r) rounds in
  let pool = List.concat_map (fun (_, _, p) -> p) rounds in
  let r0 = List.hd recorders in
  let c name = float_of_int (Recorder.counter r0 name) in
  let counts_repeat =
    List.for_all
      (fun r ->
        List.for_all
          (fun n -> Recorder.counter r n = Recorder.counter r0 n)
          [ "lifs.schedules"; "causality.flips_executed";
            "controller.instructions" ])
      recorders
  in
  let rolls =
    List.map2
      (fun p r ->
        let self, top = rollup (Recorder.spans r) in
        (p.p_wall *. 1e3, self, top))
      tpasses recorders
  in
  let npass = float_of_int (List.length rolls) in
  let per_pass f = sum (List.map f rolls) /. npass in
  let self_ms layer =
    per_pass (fun (_, self, _) ->
        Option.value ~default:0. (Hashtbl.find_opt self layer))
  in
  let traced_ms = per_pass (fun (w, _, _) -> w) in
  let unattributed_ms = per_pass (fun (w, _, top) -> w -. top) in
  (* Reproducing runs of every request, for the outside timings. *)
  let repros =
    List.filter_map
      (fun it -> repro_of it (diagnose a.workload it))
      env.items.(0)
  in
  let replay_ok =
    List.length repros = List.length real_bugs
    && List.for_all (fun r -> fst (replay ~check:true r)) repros
  in
  let flips = c "causality.flips" in
  let executed = c "causality.flips_executed" in
  let hits = c "snapshot.hits" and misses = c "snapshot.misses" in
  let pool_metric f =
    if pool = [] then 0. else median (List.map f pool)
  in
  let all_passes = (warm :: untraced) @ tpasses @ pool in
  let failed = broken all_passes in
  let violations = repeat_violations all_passes in
  (* Self times sum to the top-level span time by construction; what
     must hold is that the top-level spans fit inside each pass. *)
  let spans_fit =
    List.for_all (fun (w, _, top) -> top <= w *. (1. +. 1e-6)) rolls
  in
  let correct =
    failed = 0 && violations = 0 && counts_repeat && replay_ok && spans_fit
  in
  Printf.printf
    "trace %s, seed %d: %d traced passes, %d requests in all; broken %d, \
     repeat violations %d, counts repeat %b, replay %b, spans fit %b\n"
    (workload_name a.workload) a.seed (List.length tpasses)
    (List.length (samples all_passes)) failed violations counts_repeat
    replay_ok spans_fit;
  if a.workload = Batch_faults then
    print_endline
      "trace batch_faults: traced at 1 worker (pool worker domains carry no \
       telemetry sink, so their spans cannot be attributed); batch.* from \
       untraced passes at 2 workers";
  let faults_injected =
    List.fold_left
      (fun acc (n, v) ->
        if String.starts_with ~prefix:"faults." n then acc + v else acc)
      0 (Recorder.counters r0)
  in
  emit ~correct
    ~attempted:(List.length (samples tpasses))
    ~failed
    ([ ("ksim.instructions", c "controller.instructions", "count");
       ("ksim.step_ns", step_ns repros, "ns");
       ("controller.runs",
        c "controller.runs" +. c "controller.resumed_runs",
        "count");
       ("vm.reboots", c "vm.reboots", "count");
       ("snapshot.hits", hits, "count");
       ("snapshot.misses", misses, "count");
       ("snapshot.hit_ratio", ratio hits (hits +. misses), "ratio");
       ("snapshot.restored_instrs", c "snapshot.restored_instrs", "count");
       ("executor.preemption_runs", c "executor.preemption_runs", "count");
       ("executor.plan_runs", c "executor.plan_runs", "count");
       ("resilience.retries", c "resilience.retries", "count");
       ("resilience.quorum_runs", c "resilience.quorum_runs", "count");
       ("resilience.gave_up", c "resilience.gave_up", "count");
       ("faults.injected", float_of_int faults_injected, "count");
       ("lifs.schedules", c "lifs.schedules", "count");
       ("lifs.pruned_equivalent", c "pruned/lifs_equivalent", "count");
       ("lifs.pruned_invariant", c "pruned/lifs_invariant", "count");
       ("lifs.retained_events",
        float_of_int
          (List.fold_left (fun acc r -> acc + r.r_retained) 0 repros),
        "count");
       ("causality.flips", flips, "count");
       ("causality.flips_executed", executed, "count");
       ("causality.pruned_frac", ratio (flips -. executed) flips, "ratio");
       ("analysis.invariant_replays",
        c "analysis.invariant_replays",
        "count") ]
    @ List.map (fun l -> (l, self_ms l, "ms")) self_layers
    @ [ ("trace.slice_ms",
         per_round (fun () ->
             List.iter
               (fun r -> ignore (Trace.Slicer.slices r.r_history))
               repros),
         "ms");
        ("race.extract_ms",
         per_round (fun () ->
             List.iter
               (fun r -> ignore (Aitia.Race.of_trace r.r_trace))
               repros),
         "ms");
        ("chain.build_ms",
         per_round (fun () ->
             List.iter
               (fun r ->
                 ignore
                   (Aitia.Chain.of_causality r.r_ca ~failure:r.r_failure))
               repros),
         "ms");
        ("journal.bytes",
         pool_metric (fun p -> float_of_int p.p_journal_bytes),
         "bytes");
        ("batch.parallel_efficiency",
         pool_metric (fun p ->
             sum (List.map (fun s -> s.s_ms /. 1e3) p.p_samples)
             /. (float_of_int batch_jobs *. p.p_wall)),
         "ratio");
        ("batch.slowest_share",
         pool_metric (fun p ->
             List.fold_left (fun m s -> Float.max m s.s_ms) 0. p.p_samples
             /. (p.p_wall *. 1e3)),
         "ratio");
        ("telemetry.overhead_frac",
         (median (List.map (fun p -> p.p_wall) tpasses)
          /. median (List.map (fun p -> p.p_wall) untraced))
         -. 1.,
         "ratio");
        ("unattributed_frac", unattributed_ms /. traced_ms, "ratio");
        ("traced_pass_ms", traced_ms, "ms");
        ("failed_frac", share (fun s -> not s.s_ok) tpasses, "ratio");
        ("degraded_frac", share (fun s -> s.s_degraded) tpasses, "ratio") ])

(* --- reference chains ----------------------------------------------- *)

(* Each bug's chain from the reference engine with default flags and no
   faults, the yardstick every request is compared against. *)
let record_reference file =
  let engine =
    match Ksim.Engine.of_string "reference" with
    | Ok k -> k
    | Error e -> fail "%s" e
  in
  let chains =
    List.map
      (fun (b : Bugs.Bug.t) ->
        let r =
          D.diagnose ?max_interleavings:b.max_interleavings ~engine
            (b.case ())
        in
        match r.chain with
        | Some c -> (b.id, Json.str (Aitia.Chain.to_string c))
        | None -> fail "%s does not reproduce" b.id)
      real_bugs
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Json.obj
           [ ("engine", Json.str "reference"); ("chains", Json.obj chains) ]);
      output_char oc '\n')

let () =
  match parse_args () with
  | `Record file -> record_reference file
  | `Run a -> if a.trace then run_traced a else run_untraced a
