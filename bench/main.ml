(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§5), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            — everything
     dune exec bench/main.exe -- LIST    — only the named targets
     ... -- causality --jobs 4          — adds the pooled corpus row:
                                          the 22 bugs diagnosed side by
                                          side on 4 workers vs in turn
     ... -- causality --baseline FILE   — gates the causality rows;
                                          exit 1 on any violation
     ... -- causality --jobs 4 --min-speedup F
                                        — gates chain parity and the
                                          pooled corpus speedup only

   Targets: table1 table2 table3 table_5_3 fig1 fig3 fig5 fig6 fig7 fig9
            conciseness detector study wrongfix ablations analysis
            causality resilience

   Host-time measurements (diagnosis latency, per-layer self time,
   guest step cost) live in perfbench/, not here.

   Absolute times are simulated under the VM cost model (the substrate
   is a simulator, not the paper's 32-VM Xeon testbed); the comparisons
   to check are the shapes: who reproduces what, at which interleaving
   count, how chains compare to raw race counts, and where Causality
   Analysis dominates the cost. *)

module Iid = Ksim.Access.Iid

let pr = Fmt.pr

let section title =
  pr "@.============================================================@.";
  pr "%s@." title;
  pr "============================================================@."

(* --- memoized diagnoses ------------------------------------------------- *)

(* Each diagnosis with the baselines' evidence, gathered while it runs. *)
let diagnoses :
    ( string,
      Aitia.Diagnose.report * Baselines.Requirements.evidence option )
    Hashtbl.t =
  Hashtbl.create 32

let diagnosis_of (bug : Bugs.Bug.t) =
  match Hashtbl.find_opt diagnoses bug.id with
  | Some d -> d
  | None ->
    let d =
      Baselines.Requirements.diagnose (fun ~on_run ->
          Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
            ~on_run (bug.case ()))
    in
    Hashtbl.add diagnoses bug.id d;
    d

let report_of bug = fst (diagnosis_of bug)
let evidence_of bug = snd (diagnosis_of bug)

let chain_len (r : Aitia.Diagnose.report) =
  match r.chain with Some c -> Aitia.Chain.length c | None -> 0

let chain_str (r : Aitia.Diagnose.report) =
  match r.chain with Some c -> Aitia.Chain.to_string c | None -> "-"

(* Machine-readable artifact sink (--json FILE): targets that produce
   trackable rows register them here; after every selected target has
   run, the rows land in FILE as one object keyed by target name —
   several targets in one invocation merge instead of overwriting each
   other.  The causality gate (--baseline) reads its rows from here. *)
let json_file : string option ref = ref None
let json_docs : (string * string) list ref = ref []

(* --jobs N: the causality target then times one more sequential
   diagnosis per bug and a pass fanning the corpus out over N pool
   workers, one diagnosis per worker (as `aitia batch --jobs N' runs
   requests), and reports the wall-clock speedup and chain parity in a
   [_corpus] row. *)
let jobs_opt : int ref = ref 1

(* --baseline FILE: after the rows are written, gate the causality
   rows against FILE and floor the engine speedup ([gate_causality]);
   --min-speedup F floors the pooled corpus speedup of a --jobs run
   (0 disables it).  Either flag also requires every [*_identical]
   column to be true. *)
let baseline : (string * Telemetry.Json.t) option ref = ref None
let min_speedup : float ref = ref 0.0

let emit_json ~target doc =
  json_docs := (target, doc) :: !json_docs;
  match !json_file with
  | Some f -> pr "%s json queued for %s@." target f
  | None -> pr "json: %s@." doc

let flush_json () =
  match (!json_file, List.rev !json_docs) with
  | None, _ | _, [] -> ()
  | Some f, docs ->
    let oc = open_out f in
    output_string oc (Telemetry.Json.obj docs);
    output_string oc "\n";
    close_out oc;
    pr "json written to %s (targets: %s)@." f
      (String.concat ", " (List.map fst docs))

(* --- Table 1 ------------------------------------------------------------- *)

let table1 () =
  section "Table 1: root-cause diagnosis requirements";
  let caps =
    List.filter_map
      (fun (bug : Bugs.Bug.t) ->
        match evidence_of bug with
        | Some ev ->
          Some
            (Baselines.Requirements.capability
               ~single_variable:(bug.variables = Bugs.Bug.Single)
               ev)
        | None -> None)
      Bugs.Registry.syzkaller
  in
  let scores = Baselines.Requirements.table1 caps in
  pr "%-30s %-6s %-6s %-6s@." "tool" "compr." "p-agn." "concise";
  List.iter (fun s -> pr "%a@." Baselines.Requirements.pp_score s) scores;
  pr "@.(paper: AITIA y/y/y; Kairux -/y/y; CBL cond/-/y; MUVI cond/-/y; \
      REPT & RR y/y/-)@."

(* --- Tables 2 and 3 -------------------------------------------------------- *)

let row2 (bug : Bugs.Bug.t) =
  let r = report_of bug in
  let ca_scheds, ca_sim =
    match r.causality with
    | Some ca ->
      (ca.Aitia.Causality.stats.schedules, ca.Aitia.Causality.stats.simulated)
    | None -> (0, 0.0)
  in
  let p_lt, p_ls, p_i, p_ct, p_cs =
    match bug.paper with
    | Some p ->
      ( p.p_lifs_time, p.p_lifs_scheds, p.p_interleavings, p.p_ca_time,
        p.p_ca_scheds )
    | None -> (0.0, 0, 0, 0.0, 0)
  in
  pr
    "%-18s %-14s | %7.1f %6d %5d | %7.1f %6d | (paper: %.0fs %d %d | %.0fs \
     %d)@."
    bug.id bug.subsystem r.lifs.stats.simulated r.lifs.stats.schedules
    r.lifs.stats.interleavings ca_sim ca_scheds p_lt p_ls p_i p_ct p_cs

let table2 () =
  section "Table 2: CVEs (LIFS sim-time/#sched/inter | CA sim-time/#sched)";
  pr "%-18s %-14s | %7s %6s %5s | %7s %6s@." "bug" "subsystem" "lifs(s)"
    "#sched" "inter" "ca(s)" "#sched";
  List.iter row2 Bugs.Registry.cves

let table3 () =
  section "Table 3: Syzkaller bugs";
  pr "%-18s %-26s %-5s %-5s %-6s@." "bug" "type" "multi" "inter" "#chain";
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let r = report_of bug in
      pr "%-18s %-26s %-5s %-5d %-6d (paper: inter %d, chain %s)@." bug.id
        (Bugs.Bug.bug_type_name bug.bug_type)
        (Bugs.Bug.variables_name bug.variables)
        r.lifs.stats.interleavings (chain_len r)
        (match bug.paper with Some p -> p.p_interleavings | None -> 0)
        (match bug.paper with
        | Some { p_chain_races = Some n; _ } -> string_of_int n
        | _ -> "?"))
    Bugs.Registry.syzkaller;
  pr "@.timing detail:@.";
  List.iter row2 Bugs.Registry.syzkaller

(* --- Section 5.3 capability -------------------------------------------------- *)

let table_5_3 () =
  section "Section 5.3: diagnosis capability per tool (12 Syzkaller bugs)";
  pr "%-18s %-6s %-7s %-5s %-5s@." "bug" "AITIA" "Kairux" "CBL" "MUVI";
  let totals = Array.make 4 0 in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      match evidence_of bug with
      | None -> ()
      | Some ev ->
        let cap =
          Baselines.Requirements.capability
            ~single_variable:(bug.variables = Bugs.Bug.Single)
            ev
        in
        let b i x =
          if x then (
            totals.(i) <- totals.(i) + 1;
            "yes")
          else "no"
        in
        pr "%-18s %-6s %-7s %-5s %-5s@." bug.id (b 0 cap.cap_aitia)
          (b 1 cap.cap_kairux) (b 2 cap.cap_cbl) (b 3 cap.cap_muvi))
    Bugs.Registry.syzkaller;
  pr "totals: AITIA %d/12, Kairux %d/12, CBL %d/12, MUVI %d/12@." totals.(0)
    totals.(1) totals.(2) totals.(3);
  pr
    "(paper: AITIA 12/12; CBL cannot diagnose the multi-variable half; MUVI \
     explains 3/12)@."

(* --- figures ------------------------------------------------------------------ *)

let print_chain (bug : Bugs.Bug.t) =
  let r = report_of bug in
  match r.chain with
  | Some c -> pr "%s:@.  %a@." bug.id Aitia.Chain.pp c
  | None -> pr "%s: not reproduced@." bug.id

let fig1 () =
  section "Figure 1: abstract example and its causality chain";
  print_chain Bugs.Fig1_nullderef.bug;
  pr "(paper: (A1 => B1) --> (B2 => A2) --> NULL deref)@."

let fig3 () =
  section "Figure 3: causality chain of CVE-2017-15649";
  print_chain Bugs.Cve_2017_15649.bug;
  pr
    "(paper: (A2 => B11) /\\ (B2 => A6) --> (A6 => B12) --> (B17 => A12) --> \
     BUG_ON)@."

let fig4 () =
  section "Figure 4: complex kernel concurrency patterns";
  pr "(a)/(c) three contexts with a race-steered kworker invocation:@.";
  print_chain Bugs.Fig5_search.bug;
  pr "(b) a single system call racing with its own background threads:@.";
  print_chain Bugs.Fig4_single_syscall.bug

let fig5 () =
  section "Figure 5: LIFS search order with partial-order-reduction skips";
  let bug = Bugs.Fig5_search.bug in
  let case = bug.case () in
  let crash = Trace.History.crash case.history in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | None -> pr "slice not realizable@."
  | Some (group, prologue) ->
    let vm = Hypervisor.Vm.create group in
    let order = ref 0 in
    let on_run (sched : Hypervisor.Schedule.preemption)
        (o : Hypervisor.Controller.outcome) =
      incr order;
      pr "search order %d: inter=%d  %-52s %a@." !order
        (Hypervisor.Schedule.interleaving_count sched)
        (Fmt.str "%a" Hypervisor.Schedule.pp_preemption sched)
        Hypervisor.Controller.pp_verdict o.verdict
    in
    let result =
      Aitia.Lifs.search ~prologue ~on_run vm
        ~target:(Trace.Crash.matches crash) ()
    in
    pr "pruned as equivalent (the figure's 'skip' nodes): %d@."
      result.stats.pruned;
    (match result.found with
    | Some s -> pr "reproduced: %a@." Ksim.Failure.pp s.failure
    | None -> pr "not reproduced@.")

let fig6 () =
  section "Figure 6: Causality Analysis steps for CVE-2017-15649";
  let r = report_of Bugs.Cve_2017_15649.bug in
  match r.causality with
  | None -> pr "not diagnosed@."
  | Some ca ->
    List.iteri
      (fun i (t : Aitia.Causality.tested) ->
        pr "step %2d: flip %-22s -> %-11s%s@." (i + 1)
          (Fmt.str "%a" Aitia.Race.pp_short t.race)
          (match t.verdict with
          | Aitia.Causality.Root_cause -> "no failure"
          | Aitia.Causality.Benign -> "still fails")
          (match t.disappeared with
          | [] -> ""
          | ds ->
            Fmt.str "  (disappeared: %a)"
              (Fmt.list ~sep:Fmt.comma Aitia.Race.pp_short)
              ds))
      ca.tested;
    pr
      "(paper steps: B17=>A12, A6=>B12, A2=>B11, B2=>A6 all flip to \
       no-failure; statistics races are benign)@."

let fig7 () =
  section "Figure 7: nested data race and ambiguity";
  let r = report_of Bugs.Fig7_nested.bug in
  print_chain Bugs.Fig7_nested.bug;
  (match r.causality with
  | Some ca ->
    pr "ambiguous: %a@."
      (Fmt.list ~sep:Fmt.comma Aitia.Race.pp_short)
      ca.ambiguous
  | None -> ());
  pr
    "(paper: Causality Analysis reports the surrounding race A1 => B2 as \
     ambiguous)@."

let fig9 () =
  section "Figure 9: the irqfd case study (bug #4)";
  print_chain Bugs.Fig9_irqfd.bug;
  print_chain Bugs.Syz_04_kvm_irqfd.bug;
  pr
    "(paper: (A1 => B1) --> (K1 => A2) --> failure, across the kworkerd \
     thread boundary)@."

(* --- conciseness (Section 5.2) -------------------------------------------------- *)

let conciseness () =
  section "Section 5.2: conciseness of causality chains";
  pr "%-18s %10s %8s %8s@." "bug" "mem-instrs" "races" "chain";
  let ms =
    List.filter_map
      (fun (bug : Bugs.Bug.t) ->
        match (report_of bug).metrics with
        | Some m ->
          pr "%-18s %10d %8d %8d@." bug.id m.mem_accessing_instrs
            m.races_detected m.races_in_chain;
          Some m
        | None -> None)
      Bugs.Registry.syzkaller
  in
  let avg f =
    List.fold_left (fun a m -> a +. float_of_int (f m)) 0.0 ms
    /. float_of_int (max 1 (List.length ms))
  in
  pr
    "average: %.1f memory-accessing instructions, %.1f data races, %.1f \
     races per chain@."
    (avg (fun (m : Aitia.Diagnose.metrics) -> m.mem_accessing_instrs))
    (avg (fun (m : Aitia.Diagnose.metrics) -> m.races_detected))
    (avg (fun (m : Aitia.Diagnose.metrics) -> m.races_in_chain));
  pr
    "(paper: 9592.8 instructions, 108.4 races, 3.0 per chain — the same \
     orders-of-magnitude collapse)@."

(* --- ablations ------------------------------------------------------------------ *)

(* Context switches in a trace: how tangled the reproduction is.  The
   point of least-interleaving-first search is not raw speed to a crash
   — a random scheduler can stumble into one — but a deterministic
   failure-causing sequence with the *fewest* preemptions, which is what
   Causality Analysis needs to flip races one at a time. *)
let switches_of (trace : Ksim.Machine.event list) =
  let rec go prev n = function
    | [] -> n
    | (e : Ksim.Machine.event) :: rest ->
      let tid = e.iid.Iid.tid in
      go (Some tid) (if prev = Some tid || prev = None then n else n + 1) rest
  in
  go None 0 trace

(* Random schedule search: runs until the same crash, and how many
   context switches its failing run contains. *)
let random_search (bug : Bugs.Bug.t) ~seed ~max_runs =
  let case = bug.case () in
  let crash = Trace.History.crash case.history in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  match Aitia.Diagnose.realize case slice with
  | None -> None
  | Some (group, prologue) ->
    let rng = Fuzz.Rng.create seed in
    let rec go i =
      if i >= max_runs then None
      else
        let run_rng = Fuzz.Rng.split rng in
        let policy =
          Hypervisor.Schedule.with_prologue prologue
            (Fuzz.Fuzzer.random_policy run_rng)
        in
        let o = Hypervisor.Controller.run (Ksim.Machine.create group) policy in
        match o.verdict with
        | Hypervisor.Controller.Failed f when Trace.Crash.matches crash f ->
          Some (i + 1, switches_of o.trace)
        | _ -> go (i + 1)
    in
    go 0

let ablation_order () =
  section "Ablation: least-interleaving-first vs random scheduling";
  pr "%-18s | %12s %14s | %12s %16s@." "bug" "LIFS #sched" "LIFS #switches"
    "random #runs" "random #switches";
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let r = report_of bug in
      let lifs_switches =
        match r.lifs.found with
        | Some s -> switches_of s.outcome.trace
        | None -> -1
      in
      let random_runs, random_switches =
        match random_search bug ~seed:7 ~max_runs:20_000 with
        | Some (n, sw) -> (string_of_int n, string_of_int sw)
        | None -> (">20000", "-")
      in
      pr "%-18s | %12d %14d | %12s %16s@." bug.id r.lifs.stats.schedules
        lifs_switches random_runs random_switches)
    [ Bugs.Fig1_nullderef.bug; Bugs.Cve_2017_15649.bug;
      Bugs.Syz_02_packet_assert.bug; Bugs.Syz_08_can_j1939.bug ];
  pr
    "(random scheduling may hit a crash quickly, but its reproduction is \
     not a controlled minimal interleaving)@."

let ablation_dpor () =
  section "Ablation: DPOR-style equivalence pruning on/off";
  pr "%-18s %14s %14s %8s@." "bug" "pruned #sched" "unpruned" "skipped";
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let case = bug.case () in
      let crash = Trace.History.crash case.history in
      let slice = List.hd (Trace.Slicer.slices case.history) in
      match Aitia.Diagnose.realize case slice with
      | None -> ()
      | Some (group, prologue) ->
        let search ~prune =
          let vm = Hypervisor.Vm.create group in
          Aitia.Lifs.search
            ?max_interleavings:bug.max_interleavings ~prologue ~prune vm
            ~target:(Trace.Crash.matches crash) ()
        in
        let with_ = search ~prune:true in
        let without = search ~prune:false in
        pr "%-18s %14d %14d %8d@." bug.id with_.stats.schedules
          without.stats.schedules with_.stats.pruned)
    [ Bugs.Cve_2017_15649.bug; Bugs.Cve_2017_7533.bug;
      Bugs.Syz_06_bpf_gpf.bug ]

let ablation_backward () =
  section "Ablation: backward vs forward flip testing in Causality Analysis";
  pr "%-18s %14s %14s %10s %10s@." "bug" "vac(backward)" "vac(forward)"
    "roots(bwd)" "roots(fwd)";
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let r = report_of bug in
      match r.lifs.found with
      | None -> ()
      | Some success -> (
        let case = bug.case () in
        let slice = List.hd (Trace.Slicer.slices case.history) in
        match Aitia.Diagnose.realize case slice with
        | None -> ()
        | Some (group, prologue) ->
          let run direction =
            let vm = Hypervisor.Vm.create group in
            let ca =
              Aitia.Causality.analyze ~prologue ~direction vm
                ~failing:success.outcome ~races:success.races ()
            in
            let vacuous =
              List.length
                (List.filter
                   (fun (t : Aitia.Causality.tested) -> not t.enforced)
                   ca.tested)
            in
            (vacuous, List.length ca.root_causes)
          in
          let vb, rb = run `Backward in
          let vf, rf = run `Forward in
          pr "%-18s %14d %14d %10d %10d@." bug.id vb vf rb rf))
    [ Bugs.Cve_2017_15649.bug; Bugs.Syz_02_packet_assert.bug;
      Bugs.Syz_03_l2tp_uaf.bug ]

let ablation_slicing () =
  section "Ablation: slicing backward from the failure vs forward";
  pr "%-18s %16s %16s@." "bug" "slices(nearest)" "slices(farthest)";
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let near =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~slice_order:`Nearest_first (bug.case ())
      in
      let far =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~slice_order:`Farthest_first (bug.case ())
      in
      pr "%-18s %16d %16d@." bug.id near.slices_tried far.slices_tried)
    [ Bugs.Fig1_nullderef.bug; Bugs.Cve_2017_15649.bug;
      Bugs.Syz_03_l2tp_uaf.bug ];
  pr
    "(the root cause is close to the failure — the common wisdom the \
     backward order exploits, Sec. 4.2)@."

let ablations () =
  ablation_order ();
  ablation_dpor ();
  ablation_backward ();
  ablation_slicing ()

(* --- DataCollider comparison (Sec. 2.3) -------------------------------------------- *)

let detector () =
  section
    "DataCollider-style detection vs AITIA chains (Sec. 2.3's benign burden)";
  pr "%-18s %8s %8s %8s %14s@." "bug" "traps" "races" "chain" "benign frac";
  let fracs = ref [] in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let case = bug.case () in
      let slice = List.hd (Trace.Slicer.slices case.history) in
      match Aitia.Diagnose.realize case slice with
      | None -> ()
      | Some (group, prologue) -> (
        let det = Baselines.Data_collider.detect ~prologue group in
        let r = report_of bug in
        match r.chain with
        | None -> ()
        | Some chain ->
          let frac = Baselines.Data_collider.benign_fraction det chain in
          fracs := frac :: !fracs;
          pr "%-18s %8d %8d %8d %13.0f%%@." bug.id det.traps_placed
            (List.length det.races) (Aitia.Chain.length chain)
            (100.0 *. frac)))
    (Bugs.Registry.cves @ Bugs.Registry.syzkaller);
  let avg =
    List.fold_left ( +. ) 0.0 !fracs
    /. float_of_int (max 1 (List.length !fracs))
  in
  pr
    "average benign fraction: %.0f%%  (paper quotes DataCollider at 104/113      = 92%%; Causality Analysis removes this triage burden)@."
    (100.0 *. avg)

(* --- the Sec. 2 study over the real-world corpus ------------------------------------ *)

let study () =
  section "Section 2 study: what the 22 real-world bugs look like";
  let real = Bugs.Registry.cves @ Bugs.Registry.syzkaller in
  let diagnosed =
    List.filter_map
      (fun (bug : Bugs.Bug.t) ->
        let r = report_of bug in
        match r.causality, r.chain with
        | Some ca, Some chain -> Some (bug, ca, chain)
        | _ -> None)
      real
  in
  let race_steered =
    List.filter (fun (_, (ca : Aitia.Causality.result), _) -> ca.edges <> [])
      diagnosed
  in
  let multi =
    List.filter
      (fun ((b : Bugs.Bug.t), _, _) -> b.variables <> Bugs.Bug.Single)
      diagnosed
  in
  let loose =
    List.filter
      (fun ((b : Bugs.Bug.t), _, _) -> b.variables = Bugs.Bug.Multi_loose)
      diagnosed
  in
  let kthread =
    List.filter
      (fun ((b : Bugs.Bug.t), _, _) -> b.expectation.exp_kthread)
      diagnosed
  in
  pr "diagnosed bugs:                         %d / %d@."
    (List.length diagnosed) (List.length real);
  pr "with race-steered control flows:        %d   (paper: 16 of 22)@."
    (List.length race_steered);
  pr "multi-variable:                         %d   (paper: 6 of the 12       Syzkaller bugs + 6 of 10 CVEs)@."
    (List.length multi);
  pr "with loosely correlated objects:        %d   (paper: 3 of the 12)@."
    (List.length loose);
  pr "involving kernel background threads:    %d   (paper: 4 of the 12)@."
    (List.length kthread);
  let with_benign =
    List.filter
      (fun (_, (ca : Aitia.Causality.result), _) -> ca.benign <> [])
      diagnosed
  in
  pr "with benign races filtered by flips:    %d@."
    (List.length with_benign)

(* --- the Sec. 2.1 fix study --------------------------------------------------------- *)

let wrongfix () =
  section
    "Sec. 2.1 fix study: partial order-enforcement vs the chain's conjunction";
  let diag case =
    Aitia.Diagnose.diagnose ~max_steps:20_000 case
  in
  (* 1. The unfixed kernel (full Figure 2, including bind's re-link). *)
  let unfixed = diag (Bugs.Cve_2017_15649_fixes.unfixed_case ()) in
  (match unfixed.chain with
  | Some chain -> pr "unfixed:    %a@." Aitia.Chain.pp chain
  | None -> pr "unfixed:    not reproduced@.");
  (* 2. The wrong fix: enforce only B17 => A12 (what a single-pattern
     tool suggests).  The BUG_ON is gone; a double list_add remains. *)
  let wrong = diag (Bugs.Cve_2017_15649_fixes.wrong_fix_case ()) in
  (match wrong.lifs.found, wrong.chain with
  | Some s, Some chain ->
    pr "wrong fix:  still fails with %a@."
      Fmt.string (Ksim.Failure.symptom s.failure);
    pr "            %a@." Aitia.Chain.pp chain
  | _ -> pr "wrong fix:  no failure found (unexpected)@.");
  (* 3. The developers' fix: the (po->running, po->fanout) pair accessed
     atomically — cutting the chain's head conjunction. *)
  let fixed = diag (Bugs.Cve_2017_15649_fixes.correct_fix_case ()) in
  (match fixed.lifs.found with
  | None ->
    pr "right fix:  no schedule reproduces any failure (%d searched)@."
      fixed.lifs.stats.schedules
  | Some s ->
    pr "right fix:  UNEXPECTED failure %a@." Ksim.Failure.pp s.failure);
  pr
    "(paper: 'enforcing the order B17 => A12 is not a correct fix... both      threads still can execute fanout_link() concurrently')@."

(* --- static analysis scenario ------------------------------------------------ *)

(* Static lockset/MHP hints: per bug, the static conflict-space stats
   and how --prune invariants (the hints plus the invariant class
   collapse) changes the search (schedules explored with and without,
   both of which must reproduce).  The JSON
   trailer makes the numbers machine-trackable across revisions. *)
let analysis () =
  section "Static analysis: lockset/MHP hints feeding LIFS";
  pr "%-18s %6s %8s %7s | %9s %9s %7s %7s@." "bug" "pairs" "guarded"
    "ratio" "plain#s" "hinted#s" "static" "speedup";
  let rows = ref [] in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let case = bug.case () in
      let stats =
        Analysis.Summary.stats (Analysis.Candidates.analyze case.group)
      in
      let plain =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings case
      in
      let hinted =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~prune:`Invariants case
      in
      let ps = plain.lifs.stats.schedules
      and hs = hinted.lifs.stats.schedules in
      let speedup =
        if hs = 0 then 1.0 else float_of_int ps /. float_of_int hs
      in
      pr "%-18s %6d %8d %7.2f | %9d %9d %7d %6.2fx@." bug.id stats.n_pairs
        stats.n_guarded stats.pruning_ratio ps hs
        hinted.lifs.stats.static_pruned speedup;
      let open Telemetry.Json in
      rows :=
        obj
          [ ("bug", str bug.id);
            ("pairs", int stats.n_pairs);
            ("guarded", int stats.n_guarded);
            ("unguarded", int stats.n_unguarded);
            ("ambiguous", int stats.n_ambiguous);
            ("pruning_ratio", float stats.pruning_ratio);
            ("plain_schedules", int ps);
            ("hinted_schedules", int hs);
            ("static_pruned", int hinted.lifs.stats.static_pruned);
            ("speedup", float speedup);
            ("plain_reproduced", bool (Aitia.Diagnose.reproduced plain));
            ("hinted_reproduced", bool (Aitia.Diagnose.reproduced hinted)) ]
        :: !rows)
    (Bugs.Registry.cves @ Bugs.Registry.syzkaller);
  emit_json ~target:"analysis" (Telemetry.Json.arr (List.rev !rows))

(* --- engine throughput (compiled vs reference) ------------------------------ *)

(* Executor-style replay: the controller's runnable+step drive loop on
   a fresh guest per round, timed exclusive of boot so the metric is
   step throughput rather than machine construction.  The deterministic
   first-runnable schedule makes both engines execute the identical
   instruction sequence; every started run completes before the clock
   is read, so counted steps always cover whole schedules. *)
let step_throughput engine group ~seconds =
  Gc.full_major ();
  let steps = ref 0 and elapsed = ref 0.0 in
  (* executor-style driving: consult [runnable] before every step, so
     both a scheduling query and the step itself are inside the timed
     region.  The controller now asks [first_runnable] instead, which
     builds no list; this loop keeps [runnable] because the gated
     [_engine] baseline ratio was recorded with it. *)
  while !elapsed < seconds do
    let m = ref (Ksim.Engine.boot engine group) in
    let t0 = Unix.gettimeofday () in
    let continue = ref true in
    while !continue do
      match Ksim.Machine.runnable !m with
      | [] -> continue := false
      | tid :: _ -> (
        match Ksim.Engine.step !m tid with
        | Ok (m', _) ->
          incr steps;
          m := m'
        | Error _ -> continue := false)
    done;
    elapsed := !elapsed +. (Unix.gettimeofday () -. t0)
  done;
  (!steps, !elapsed)

(* --- Causality Analysis pruning scenario ----------------------------------- *)

(* Every guest instruction a diagnosis steps, read from the
   controller's own counter under a private recorder, so a run that
   bypasses the VM's accounting is still counted.  The recorder is
   replayed into the bench's own sink (--metrics-out), if any. *)
let guest_instrs f =
  let rc = Telemetry.Recorder.create () in
  let r = Telemetry.Probe.with_sink (Telemetry.Recorder.sink rc) f in
  Option.iter (Telemetry.Recorder.replay rc) (Telemetry.Probe.current_sink ());
  (r, Telemetry.Recorder.counter rc "controller.instructions")

(* --prune invariants: per bug, plain Causality Analysis vs
   --prune invariants with gain scheduling — flips executed, flips
   pruned, schedules, simulated cost, instructions executed and the
   schedules-per-simulated-second throughput, with the chain-parity
   checks that make every optimisation trustworthy.  Rows
   land in BENCH_causality.json under --json, and --baseline gates them
   (see [gate_causality]). *)
let causality () =
  section
    "Causality Analysis: --prune invariants (plain vs invariants+gain)";
  pr "%-18s %6s | %7s %7s %7s | %8s | %9s | %6s %6s | %s@." "bug" "flips"
    "plain#s" "inv#s" "pruned" "plain(s)" "plain#i" "plain#t" "inv#t"
    "chain";
  let corpus = Bugs.Registry.cves @ Bugs.Registry.syzkaller in
  let rows = ref [] in
  let seq_total = ref 0.0 in
  let seq_chains = ref [] in
  (* engine columns: per-bug step throughput of each engine plus the
     reference-vs-compiled chain parity; aggregated into the corpus
     engine_speedup ratio the gate floors at 5x.  Long diagnosis
     workloads dominate the aggregate, so boot-heavy figure examples
     carry little weight. *)
  let eng_ref_steps = ref 0 and eng_ref_time = ref 0.0 in
  let eng_cmp_steps = ref 0 and eng_cmp_time = ref 0.0 in
  let eng_chains_identical = ref true in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let t0 = Unix.gettimeofday () in
      let plain, plain_guest =
        guest_instrs (fun () ->
            Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
              (bug.case ()))
      in
      let inv, inv_instrs =
        guest_instrs (fun () ->
            Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
              ~prune:`Invariants ~order:`Gain (bug.case ()))
      in
      let host_elapsed = Unix.gettimeofday () -. t0 in
      (* --jobs N: one more fresh diagnosis, timed, for the pooled pass
         to be compared with.  Wall times measure the host, so the gate
         ignores them. *)
      if !jobs_opt > 1 then begin
        let t0 = Unix.gettimeofday () in
        let chain =
          chain_str
            (Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
               (bug.case ()))
        in
        seq_total := !seq_total +. (Unix.gettimeofday () -. t0);
        seq_chains := chain :: !seq_chains
      end;
      match plain.causality, inv.causality with
      | Some pca, Some ica ->
        let flips = List.length ica.tested in
        let executed =
          List.length
            (List.filter
               (fun (t : Aitia.Causality.tested) -> t.pruned = None)
               ica.tested)
        in
        let pruned = ica.stats.flips_statically_pruned in
        let inv_chain = String.equal (chain_str plain) (chain_str inv) in
        (* executed-schedule totals (LIFS + CA) per pruning level;
           --prune invariants must never cost more than --prune none,
           in schedules or in guest instructions *)
        let plain_total = plain.lifs.stats.schedules + pca.stats.schedules in
        let inv_total = inv.lifs.stats.schedules + ica.stats.schedules in
        (* pipeline totals: LIFS reproduction + Causality Analysis *)
        let plain_instrs =
          plain.lifs.stats.executed_instrs + pca.stats.executed_instrs
        in
        let per_simsec schedules simulated =
          if simulated > 0. then float_of_int schedules /. simulated else 0.
        in
        let plain_rate = per_simsec pca.stats.schedules pca.stats.simulated in
        pr "%-18s %6d | %7d %7d %7d | %8.1f | %9d | %6d %6d | %s@." bug.id
          flips pca.stats.schedules ica.stats.schedules pruned
          pca.stats.simulated plain_instrs plain_total inv_total
          (if inv_chain then "identical" else "DIFFERS");
        let eng_group = (bug.case ()).Aitia.Diagnose.group in
        (* three interleaved leg pairs, keeping each engine's best-rate
           leg: transient host contention slows individual legs, and
           the ratio of best legs is robust to it *)
        let leg_rate (s, t) = if t > 0. then float_of_int s /. t else 0. in
        let best_ref = ref (0, 0.0) and best_cmp = ref (0, 0.0) in
        for _ = 1 to 3 do
          let r = step_throughput Ksim.Engine.Reference eng_group ~seconds:0.05 in
          if leg_rate r > leg_rate !best_ref then best_ref := r;
          let c = step_throughput Ksim.Engine.Compiled eng_group ~seconds:0.05 in
          if leg_rate c > leg_rate !best_cmp then best_cmp := c
        done;
        let rs, rt = !best_ref in
        let cs, ct = !best_cmp in
        let ref_ips = float_of_int rs /. rt in
        let cmp_ips = float_of_int cs /. ct in
        let eng_speedup = if ref_ips > 0. then cmp_ips /. ref_ips else 0. in
        (* [plain] ran on the session-default (compiled) engine; a
           reference-engine diagnosis must produce the identical chain *)
        let ref_report =
          Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
            ~engine:Ksim.Engine.Reference (bug.case ())
        in
        let eng_chain = String.equal (chain_str plain) (chain_str ref_report) in
        eng_ref_steps := !eng_ref_steps + rs;
        eng_ref_time := !eng_ref_time +. rt;
        eng_cmp_steps := !eng_cmp_steps + cs;
        eng_cmp_time := !eng_cmp_time +. ct;
        if not eng_chain then eng_chains_identical := false;
        pr
          "  engine: reference %9.0f i/s  compiled %9.0f i/s  speedup \
           %5.2fx  chain %s@."
          ref_ips cmp_ips eng_speedup
          (if eng_chain then "identical" else "DIFFERS");
        let open Telemetry.Json in
        rows :=
          obj
            [ ("bug", str bug.id);
              ("flips", int flips);
              ("flips_executed", int executed);
              ("flips_pruned", int pruned);
              ("plain_ca_schedules", int pca.stats.schedules);
              ("plain_ca_simulated", float pca.stats.simulated);
              ("plain_lifs_schedules", int plain.lifs.stats.schedules);
              ("plain_lifs_simulated", float plain.lifs.stats.simulated);
              ("plain_instrs", int plain_instrs);
              ("plain_sched_per_simsec", float plain_rate);
              ("host_elapsed_s", float host_elapsed);
              ("inv_lifs_schedules", int inv.lifs.stats.schedules);
              ("inv_ca_schedules", int ica.stats.schedules);
              ("inv_executed_schedules", int inv_total);
              ("inv_instrs", int inv_instrs);
              ("invariant_pruned", int inv.lifs.stats.invariant_pruned);
              ("gain_reorderings",
               int
                 (inv.lifs.stats.gain_reorderings
                 + ica.stats.gain_reorderings));
              ("inv_chain_identical", bool inv_chain);
              ("inv_le_plain",
               bool (inv_total <= plain_total && inv_instrs <= plain_guest));
              ("engine_ref_ips", float ref_ips);
              ("engine_compiled_ips", float cmp_ips);
              ("engine_speedup", float eng_speedup);
              ("engine_chain_identical", bool eng_chain) ]
          :: !rows
      | _ -> pr "%-18s not diagnosed@." bug.id)
    corpus;
  if !jobs_opt > 1 then begin
    (* Pooled pass: the whole corpus fanned out over an N-worker pool,
       one diagnosis per worker (batch-style).  Bugs are independent,
       so an N-core host should approach Nx over the sequential per-bug
       total. *)
    let t0 = Unix.gettimeofday () in
    let pooled_chains =
      Hypervisor.Pool.map_list
        (Hypervisor.Pool.create ~jobs:!jobs_opt)
        (fun (bug : Bugs.Bug.t) ->
          chain_str
            (Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
               (bug.case ())))
        corpus
    in
    let pooled_wall = Unix.gettimeofday () -. t0 in
    let pooled_identical = pooled_chains = List.rev !seq_chains in
    let pooled_speedup =
      if pooled_wall > 0. then !seq_total /. pooled_wall else 0.
    in
    pr
      "corpus pooled summary (--jobs %d, pool backend %s): in turn %.3fs  \
       pooled %.3fs (%.2fx, chains %s)@."
      !jobs_opt Hypervisor.Pool.backend !seq_total pooled_wall pooled_speedup
      (if pooled_identical then "all identical" else "SOME DIFFER");
    let open Telemetry.Json in
    rows :=
      obj
        [ ("bug", str "_corpus");
          ("jobs", int !jobs_opt);
          ("pooled_wall_s", float pooled_wall);
          ("pooled_speedup", float pooled_speedup);
          ("pooled_chain_identical", bool pooled_identical) ]
      :: !rows
  end;
  let corpus_ref_ips =
    if !eng_ref_time > 0. then float_of_int !eng_ref_steps /. !eng_ref_time
    else 0.
  in
  let corpus_cmp_ips =
    if !eng_cmp_time > 0. then float_of_int !eng_cmp_steps /. !eng_cmp_time
    else 0.
  in
  let corpus_speedup =
    if corpus_ref_ips > 0. then corpus_cmp_ips /. corpus_ref_ips else 0.
  in
  pr
    "corpus engine summary: reference %9.0f i/s  compiled %9.0f i/s  \
     speedup %.2fx  chains %s@."
    corpus_ref_ips corpus_cmp_ips corpus_speedup
    (if !eng_chains_identical then "all identical" else "SOME DIFFER");
  let open Telemetry.Json in
  rows :=
    obj
      [ ("bug", str "_engine");
        ("engine_ref_ips", float corpus_ref_ips);
        ("engine_compiled_ips", float corpus_cmp_ips);
        ("corpus_engine_speedup", float corpus_speedup);
        ("engine_chains_identical", bool !eng_chains_identical) ]
    :: !rows;
  emit_json ~target:"causality" (arr (List.rev !rows))

(* The causality rows' own gate rules, next to the code that emits
   them.  Host-dependent columns (wall clock, rates, speedups, worker
   counts) are not compared with the baseline; the speedups that matter
   are floored instead.  Under --baseline every other numeric column
   may not exceed the baseline by more than 2%, a baseline [true] must
   stay [true], a baseline row or column missing from the fresh rows
   fails, and the corpus engine speedup is floored at 5x.  Under either
   gating flag every [*_identical] column must be [true]. *)
let host_columns =
  [ "host_elapsed_s"; "plain_sched_per_simsec"; "jobs"; "pooled_wall_s";
    "pooled_speedup"; "engine_ref_ips"; "engine_compiled_ips";
    "engine_speedup"; "corpus_engine_speedup" ]

let parse_json what s =
  match Telemetry.Json.of_string s with
  | Ok doc -> doc
  | Error e ->
    Fmt.epr "%s: %s@." what e;
    exit 1

let read_baseline file =
  match In_channel.with_open_text file In_channel.input_all with
  | s -> parse_json file s
  | exception Sys_error e ->
    Fmt.epr "--baseline: %s@." e;
    exit 1

let gate_causality () =
  let fresh =
    parse_json "causality rows" (List.assoc "causality" !json_docs)
  in
  let rows = Option.value ~default:[] (Telemetry.Json.to_list fresh) in
  let floors =
    (if Option.is_some !baseline then [ ("corpus_engine_speedup", 5.0) ]
     else [])
    @ (if !min_speedup > 0. then [ ("pooled_speedup", !min_speedup) ]
       else [])
  in
  let verdicts =
    Telemetry.Gate.check_floors ~floors rows
    :: Telemetry.Gate.check_identical rows
    :: Option.fold ~none:[]
         ~some:(fun (_, baseline) ->
           [ Telemetry.Gate.compare_docs ~ignore_fields:host_columns
               ~baseline ~fresh () ])
         !baseline
  in
  let checked =
    List.fold_left (fun n (v : Telemetry.Gate.verdict) -> n + v.checked) 0
      verdicts
  in
  let against =
    Option.fold ~none:"" ~some:(fun (f, _) -> " against " ^ f) !baseline
  in
  match
    List.concat_map
      (fun (v : Telemetry.Gate.verdict) -> v.violations)
      verdicts
  with
  | [] ->
    pr "causality gate OK: %d check(s)%s, %d floor(s) held@." checked
      against (List.length floors)
  | violations ->
    Fmt.epr "causality gate FAILED (%d check(s)%s):@." checked against;
    List.iter (fun m -> Fmt.epr "  %s@." m) violations;
    exit 1

(* --- resilience scenario ------------------------------------------------------ *)

(* Fault injection vs the fault-free pipeline: per bug, a diagnosis
   under a 5% mixed fault rate (the retry/quorum machinery armed with
   the default policy) against the memoized clean one — faults actually
   injected, retries spent, quorum confirmation runs, exhausted
   budgets, and whether the causality chain converged to the clean
   chain anyway.  Rows land under --json for tracking; this target is
   deliberately NOT part of the perf gate (fault schedules change as
   decision points move), the chain-parity column is the invariant. *)
let resilience () =
  section "Resilience: 5% mixed fault rate with retry/quorum vs fault-free";
  let spec =
    match Hypervisor.Faults.spec_of_string "rate=0.05" with
    | Ok s -> s
    | Error e -> Fmt.failwith "bad fault spec: %s" e
  in
  pr "%-18s %8s %7s %7s %7s %8s | %s@." "bug" "injected" "retries" "quorum"
    "gave_up" "degraded" "chain";
  let rows = ref [] in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      let clean = report_of bug in
      let faults = Hypervisor.Faults.create ~seed:1009 spec in
      let faulted =
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~faults (bug.case ())
      in
      let retries, quorum_runs, gave_up =
        match faulted.resilience with
        | Some (res : Aitia.Resilience.t) ->
          (res.stats.retries, res.stats.quorum_runs, res.stats.gave_up)
        | None -> (0, 0, 0)
      in
      let converged = String.equal (chain_str clean) (chain_str faulted) in
      pr "%-18s %8d %7d %7d %7d %8b | %s@." bug.id faulted.faults_injected
        retries quorum_runs gave_up faulted.degraded
        (if converged then "identical" else "DIFFERS");
      let open Telemetry.Json in
      rows :=
        obj
          [ ("bug", str bug.id);
            ("faults_injected", int faulted.faults_injected);
            ("retries", int retries);
            ("quorum_runs", int quorum_runs);
            ("gave_up", int gave_up);
            ("degraded", bool faulted.degraded);
            ("reproduced", bool (Aitia.Diagnose.reproduced faulted));
            ("chain_identical", bool converged) ]
        :: !rows)
    (Bugs.Registry.cves @ Bugs.Registry.syzkaller);
  emit_json ~target:"resilience" (Telemetry.Json.arr (List.rev !rows))

(* --- main --------------------------------------------------------------------- *)

let all_targets =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table_5_3", table_5_3); ("fig1", fig1); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
    ("fig6", fig6); ("fig7", fig7); ("fig9", fig9);
    ("conciseness", conciseness); ("detector", detector); ("study", study);
    ("wrongfix", wrongfix); ("ablations", ablations);
    ("analysis", analysis); ("causality", causality);
    ("resilience", resilience) ]

let trace_file : string option ref = ref None
let metrics_file : string option ref = ref None

let () =
  (* Throughput-bench GC hygiene: the compiled engine is allocation-
     throughput-bound, so the default 256k-word minor heap spends a
     measurable fraction of each leg in minor collections.  A 2M-word
     nursery applies equally to both engines. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  let raw = List.tl (Array.to_list Sys.argv) in
  let rec split targets = function
    | [] -> List.rev targets
    | "--json" :: file :: rest ->
      json_file := Some file;
      split targets rest
    | "--trace-out" :: file :: rest ->
      trace_file := Some file;
      split targets rest
    | "--metrics-out" :: file :: rest ->
      metrics_file := Some file;
      split targets rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs_opt := j
      | _ ->
        Fmt.epr "--jobs needs a positive integer (got %S)@." n;
        exit 1);
      split targets rest
    | "--baseline" :: file :: rest ->
      baseline := Some (file, read_baseline file);
      split targets rest
    | "--min-speedup" :: f :: rest ->
      (match float_of_string_opt f with
      | Some v when v >= 0. -> min_speedup := v
      | _ ->
        Fmt.epr "--min-speedup needs a non-negative number (got %S)@." f;
        exit 1);
      split targets rest
    | [ ( "--json" | "--trace-out" | "--metrics-out" | "--jobs" | "--baseline"
        | "--min-speedup" ) as flag ] ->
      Fmt.epr "%s needs an argument@." flag;
      exit 1
    | a :: rest -> split (a :: targets) rest
  in
  let args = split [] raw in
  let recorder =
    match (!trace_file, !metrics_file) with
    | None, None -> None
    | _ ->
      let r = Telemetry.Recorder.create () in
      Telemetry.Probe.install (Telemetry.Recorder.sink r);
      Some r
  in
  let selected =
    match args with
    | [] -> all_targets
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_targets with
          | Some f -> (n, f)
          | None ->
            Fmt.epr "unknown target %s (have: %a)@." n
              (Fmt.list ~sep:Fmt.comma Fmt.string)
              (List.map fst all_targets);
            exit 1)
        names
  in
  let gated = Option.is_some !baseline || !min_speedup > 0. in
  if gated && not (List.mem_assoc "causality" selected) then (
    Fmt.epr "--baseline and --min-speedup need the causality target@.";
    exit 1);
  List.iter (fun (_, f) -> f ()) selected;
  flush_json ();
  Option.iter
    (fun r ->
      Option.iter
        (fun f ->
          Telemetry.Chrome_trace.write ~file:f r;
          pr "chrome trace written to %s@." f)
        !trace_file;
      Option.iter
        (fun f ->
          Telemetry.Metrics.write ~file:f r;
          pr "metrics written to %s@." f)
        !metrics_file)
    recorder;
  if gated then gate_causality ()
