(* The aitia command-line interface.

   aitia list                 — the modeled bug corpus
   aitia diagnose <id> …      — run the full pipeline, print the report
   aitia analyze <id> …       — static lockset/MHP analysis, JSON report
   aitia lint <id> …          — static lock-order lint (cycles, inversions)
   aitia stats <id> …         — diagnose under telemetry, print the metrics
   aitia chain <id> …         — print only the causality chain
   aitia batch <manifest>     — run a manifest of requests concurrently
   aitia fuzz <id> [--seed n] — fuzz the workload, then diagnose the crash
   aitia compare <id> …       — run the prior-work baselines on a bug

   Every subcommand accepts --trace-out FILE (Chrome trace-event JSON
   of the whole invocation, for chrome://tracing) and --metrics-out
   FILE (flat counters/histograms/span-rollup JSON).

   diagnose, stats and chain additionally take the robustness options:
   --fault-spec/--fault-seed (deterministic fault injection),
   --max-retries/--step-timeout (resilient execution), and
   --journal/--resume (checkpointed, resumable diagnosis).

   Exit status: 0 every case diagnosed; 1 some case cleanly failed to
   reproduce; 2 usage or configuration error; 3 diagnosis degraded
   (retry budget exhausted or quorum disagreement — partial chain). *)

open Cmdliner

let setup_logs =
  let debug =
    Arg.(value & flag & info [ "debug" ] ~doc:"Enable debug logging \
                                              (same as --log-level=debug)")
  in
  let level =
    let doc =
      "Log verbosity: $(b,quiet), $(b,error), $(b,warning), $(b,info) or \
       $(b,debug)."
    in
    Arg.(value & opt (some string) None
         & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON of this invocation to \
                   $(docv) (load it in chrome://tracing or Perfetto)")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write flat metrics JSON (counters, histograms, span \
                   rollups) of this invocation to $(docv)")
  in
  let init debug level trace_out metrics_out =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    let lvl =
      match level with
      | None -> Some (if debug then Logs.Debug else Logs.Warning)
      | Some s -> (
        match Logs.level_of_string s with
        | Ok l -> l
        | Error (`Msg m) ->
          Fmt.epr "aitia: %s@." m;
          exit 2)
    in
    Logs.set_level lvl;
    (* Telemetry sinks: one recorder for the whole invocation, flushed
       to the requested files when the process exits. *)
    match (trace_out, metrics_out) with
    | None, None -> ()
    | _ ->
      let r = Telemetry.Recorder.create () in
      Telemetry.Probe.install (Telemetry.Recorder.sink r);
      at_exit (fun () ->
          Option.iter
            (fun file -> Telemetry.Chrome_trace.write ~file r)
            trace_out;
          Option.iter
            (fun file -> Telemetry.Metrics.write ~file r)
            metrics_out)
  in
  Term.(const init $ debug $ level $ trace_out $ metrics_out)

let bug_arg =
  let doc = "Bug id(s) from the corpus (see `aitia list'); 'all' selects \
             every bug." in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"BUG" ~doc)

let resolve ids =
  let all = Bugs.Registry.all in
  if List.mem "all" ids then all
  else
    List.map
      (fun id ->
        match Bugs.Registry.find id with
        | Some b -> b
        | None ->
          Fmt.epr "unknown bug id %s; try `aitia list'@." id;
          exit 2)
      ids

(* --- numeric option validation ----------------------------------------- *)

(* Reject garbage and out-of-range values at parse time, so a typo like
   `--max-retries -1` or `--step-timeout many` is a usage error (exit
   code 2), not a silent misconfiguration. *)
let int_conv ~what ~ok ~expect =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when ok n -> Ok n
    | Some n -> Error (`Msg (Fmt.str "%s must be %s (got %d)" what expect n))
    | None ->
      Error (`Msg (Fmt.str "%s expects %s, got %S" what expect s))
  in
  Arg.conv (parse, Fmt.int)

let nonneg_int ~what =
  int_conv ~what ~ok:(fun n -> n >= 0) ~expect:"a non-negative integer"

let pos_int ~what =
  int_conv ~what ~ok:(fun n -> n > 0) ~expect:"a positive integer"

(* Usage errors detected after parsing (option combinations, unreadable
   journals) exit with code 2, like parse errors. *)
let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "aitia: %s@." msg;
      exit 2)
    fmt

(* --- the diagnosis request --------------------------------------------- *)

(* diagnose, stats, chain and compare turn their flags into one
   Batch.request -- the record a batch manifest entry parses into --
   and run every selected bug through Batch.diagnose, as Batch.run
   does. *)

type diagnosis = {
  knobs : Aitia.Batch.request;  (** [rq_id]/[rq_bug] are set per bug *)
  journal : Aitia.Journal.t option;  (** shared by every selected bug *)
}

let defaults = { knobs = Aitia.Batch.default_request; journal = None }

let case_of_id id =
  Option.map
    (fun (b : Bugs.Bug.t) -> (b.case (), b.max_interleavings))
    (Bugs.Registry.find id)

let diagnose ?on_run (d : diagnosis) (bug : Bugs.Bug.t) :
    Aitia.Diagnose.report =
  match
    Aitia.Batch.diagnose ?journal:d.journal ?on_run ~resolve:case_of_id
      { d.knobs with rq_id = bug.id; rq_bug = bug.id }
  with
  | Ok report -> report
  | Error e -> usage_error "%s" e

let exit_of reports =
  Aitia.Report.worst_exit (List.map Aitia.Report.exit_code reports)

(* Checked when flags are parsed; the request carries the text, as a
   manifest's fault_spec field does. *)
let fault_spec_conv =
  let parse s =
    match Hypervisor.Faults.spec_of_string s with
    | Ok _ -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Fmt.string)

(* The robustness, engine and journal options every diagnosing
   subcommand but compare takes, plus the subcommand's own pipeline
   flags; the journal is opened once. *)
let diagnosis_term ?(prune = Term.const None) ?(order = Term.const None) ()
    =
  let fault_spec =
    Arg.(value & opt (some fault_spec_conv) None
         & info [ "fault-spec" ] ~docv:"SPEC"
             ~doc:
               "Inject deterministic faults into the execution layer; \
                $(docv) is comma-separated key=value pairs: $(b,rate=R) \
                gives each of the five kinds the rate R/6, or set \
                $(b,boot), $(b,hang), $(b,miss), $(b,spurious), \
                $(b,flap) individually \
                (probabilities in [0,1]); $(b,site=LABEL) restricts \
                missed preemptions to scheduling points at that \
                instruction label")
  in
  let fault_seed =
    Arg.(value
         & opt (nonneg_int ~what:"--fault-seed")
             Aitia.Batch.default_request.rq_fault_seed
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:
               "Seed of the fault-injection stream; identical \
                (spec, seed) pairs inject identical fault schedules")
  in
  let max_retries =
    Arg.(value & opt (some (nonneg_int ~what:"--max-retries")) None
         & info [ "max-retries" ] ~docv:"N"
             ~doc:
               "Re-run attempts perturbed by a detectable fault up to \
                $(docv) times with exponential backoff (default 3 when \
                faults are injected); 0 disables retrying AND quorum \
                confirmation — fault-perturbed decisions are then \
                accepted degraded (exit code 3) instead of re-executed")
  in
  let step_timeout =
    Arg.(value & opt (some (pos_int ~what:"--step-timeout")) None
         & info [ "step-timeout" ] ~docv:"STEPS"
             ~doc:
               "Watchdog: bound every schedule execution to $(docv) \
                controller steps, so a hung run is cut off \
                deterministically instead of running forever")
  in
  let journal_file =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:
               "Checkpoint per-slice / per-flip diagnosis progress to \
                $(docv) (atomically, after every unit of work) so an \
                interrupted diagnosis can be resumed with $(b,--resume)")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "Resume from the journal named by $(b,--journal): \
                finished slices and flip verdicts are replayed from the \
                journal instead of re-executed, and the report is \
                identical to an uninterrupted run")
  in
  let engine =
    Arg.(value
         & opt (enum Ksim.Engine.names) Ksim.Engine.default
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:
               "Machine implementation the guest VMs run on: \
                $(b,compiled) (default) executes programs compiled to \
                flat integer opcodes in place in a mutable arena; \
                $(b,reference) is the persistent reference semantics.  Chains, verdicts and race sets are \
                bit-identical across engines")
  in
  let make rq_prune rq_order rq_fault_spec rq_fault_seed rq_max_retries
      rq_step_timeout journal_file resume engine =
    let knobs =
      { defaults.knobs with
        rq_prune; rq_order; rq_fault_spec; rq_fault_seed; rq_max_retries;
        rq_step_timeout; rq_engine = Some engine }
    in
    let journal =
      match Aitia.Journal.open_ ~resume journal_file with
      | Ok j -> j
      | Error e -> usage_error "%s" e
    in
    { knobs; journal }
  in
  Term.(const make $ prune $ order $ fault_spec $ fault_seed $ max_retries
        $ step_timeout $ journal_file $ resume $ engine)

(* Static-proof level and schedule-order selection, shared by diagnose
   and stats (analyze reads --prune too). *)
let prune_arg =
  Cmdliner.Arg.(
    value
    & opt (some (enum Aitia.Causality.prune_names)) None
    & info [ "prune" ] ~docv:"LEVEL"
        ~doc:
          "Static proofs that may skip a re-execution: $(b,none) runs \
           everything; $(b,invariants) enables the lockset/MHP hints, \
           the flip-feasibility pre-analysis in Causality Analysis and \
           the failure-relevance closure, so LIFS runs one \
           representative per invariant-equivalent frontier class.  \
           Causality chains are identical at both levels")

let order_arg =
  Cmdliner.Arg.(
    value
    & opt (enum Aitia.Lifs.order_names) `Fixed
    & info [ "order" ] ~docv:"ORDER"
        ~doc:
          "LIFS search order: $(b,backward) is the paper's \
           breadth-first search; $(b,gain) ranks candidate runs by \
           expected information gain — closest to even odds first, \
           updated by the reproduction attempts the search accumulates.  \
           It orders only the LIFS search: Causality Analysis tests \
           every flip latest-first under either order")

(* The full knob set of diagnose and stats. *)
let pipeline_term =
  diagnosis_term ~prune:prune_arg
    ~order:Term.(const Option.some $ order_arg) ()

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Fmt.pr "%-18s %-14s %-26s %-5s %a@." "ID" "SUBSYSTEM" "BUG TYPE" "MULTI"
      Fmt.string "SOURCE";
    List.iter
      (fun (b : Bugs.Bug.t) ->
        Fmt.pr "%-18s %-14s %-26s %-5s %a@." b.id b.subsystem
          (Bugs.Bug.bug_type_name b.bug_type)
          (Bugs.Bug.variables_name b.variables)
          Bugs.Bug.pp_source b.source)
      Bugs.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the modeled bug corpus")
    Term.(const run $ setup_logs)

(* --- diagnose --------------------------------------------------------- *)

let diagnose_cmd =
  let flips =
    Arg.(value & flag
         & info [ "flips" ] ~doc:"Print the Causality Analysis flip log")
  in
  let run () ids show_flips d =
    let reports =
      List.map
        (fun bug ->
          let report = diagnose d bug in
          Fmt.pr "%a@." Aitia.Report.pp report;
          (if show_flips then
             match report.causality with
             | None -> ()
             | Some ca ->
               Fmt.pr "flip log:@.";
               List.iteri
                 (fun i (t : Aitia.Causality.tested) ->
                   Fmt.pr "  step %2d: flip %-24s -> %s@." (i + 1)
                     (Fmt.str "%a" Aitia.Race.pp_short t.race)
                     (match t.verdict with
                     | Aitia.Causality.Root_cause -> "no failure (root cause)"
                     | Aitia.Causality.Benign -> "still fails (benign)"))
                 ca.tested);
          report)
        (resolve ids)
    in
    exit_of reports
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Reproduce a failure and build its causality chain"
       ~exits:
         [ Cmd.Exit.info 0 ~doc:"every case was diagnosed";
           Cmd.Exit.info 1 ~doc:"some case failed to reproduce";
           Cmd.Exit.info 2 ~doc:"usage or configuration error";
           Cmd.Exit.info 3
             ~doc:
               "diagnosis degraded: retry budget exhausted or quorum \
                disagreement, the chain is partial" ])
    Term.(const run $ setup_logs $ bug_arg $ flips $ pipeline_term)

(* --- analyze ---------------------------------------------------------- *)

(* The serial prologue of a case, as thread names: every thread some
   slice realizes as setup (resource closure) rather than as a racing
   episode.  This mirrors what Diagnose.realize forces serial. *)
let serial_names (case : Aitia.Diagnose.case) =
  List.concat_map
    (fun (s : Trace.Slicer.t) ->
      List.map (fun (e : Trace.History.episode) -> e.thread) s.setup)
    (Trace.Slicer.slices case.history)
  |> List.sort_uniq String.compare

let analyze_cmd =
  let run () ids prune =
    let with_invariants = prune = Some `Invariants in
    let reports =
      List.map
        (fun (bug : Bugs.Bug.t) ->
          let case = bug.case () in
          let serial = serial_names case in
          let candidates =
            Analysis.Report_json.to_string
              (Analysis.Candidates.analyze ~serial case.group)
          in
          if with_invariants then
            let rel = Analysis.Absdom.of_group case.group in
            Telemetry.Json.obj
              [ ("analysis", candidates);
                ("invariants",
                 Analysis.Report_json.invariants_to_string rel
                   (Analysis.Invariants.redundant_sections ~relevance:rel
                      case.group)) ]
          else candidates)
        (resolve ids)
    in
    Fmt.pr "[%s]@." (String.concat "," reports);
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static lockset / may-happen-in-parallel analysis of a \
             case's kernel programs, as JSON: every memory-accessing \
             site with its must/may locksets and every conflicting pair \
             classified Guarded, Unguarded or Ambiguous.  With \
             $(b,--prune=invariants) the report additionally carries \
             the error-invariant section: the failure-relevance closure \
             and the critical sections it proves redundant")
    Term.(const run $ setup_logs $ bug_arg $ prune_arg)

(* --- lint ------------------------------------------------------------- *)

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the lint report as a JSON array")
  in
  let run () ids json =
    let bugs = resolve ids in
    let reports =
      List.map
        (fun (bug : Bugs.Bug.t) ->
          let case = bug.case () in
          let serial = serial_names case in
          ( bug,
            Analysis.Lockorder.analyze ~serial case.group,
            (* Advisory, invariant-derived: lock acquisitions whose
               critical section provably guards nothing
               failure-relevant.  Never affects the exit status. *)
            Analysis.Invariants.redundant_sections case.group ))
        bugs
    in
    if json then
      Fmt.pr "[%s]@."
        (String.concat ","
           (List.map
              (fun ((bug : Bugs.Bug.t), r, red) ->
                Telemetry.Json.obj
                  [ ("bug", Telemetry.Json.str bug.id);
                    ("lint", Analysis.Report_json.lint_to_string r);
                    ("redundant_sections",
                     Telemetry.Json.arr
                       (List.map Analysis.Report_json.redundant_json red))
                  ])
              reports))
    else
      List.iter
        (fun ((bug : Bugs.Bug.t), r, red) ->
          let ls = Analysis.Summary.lint_stats r in
          Fmt.pr "%-18s %a%s@." bug.id Analysis.Summary.pp_lint_stats ls
            (if Analysis.Summary.clean ls then "" else "  [FLAGGED]");
          List.iter
            (fun c -> Fmt.pr "  cycle: %a@." Analysis.Lockorder.pp_cycle c)
            r.cycles;
          List.iter
            (fun v ->
              Fmt.pr "  inversion: %a@." Analysis.Lockorder.pp_inversion v)
            r.inversions;
          List.iter
            (fun s ->
              Fmt.pr "  redundant lock: %a@." Analysis.Invariants.pp_redundant
                s)
            red)
        reports;
    0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Lockdep-style static lock-order lint: build the cross-thread \
             lock-acquisition-order graph from the per-instruction \
             locksets, report cycles (potential ABBA deadlocks) with \
             witness paths, guarded-publication inversions, and \
             (advisory) lock acquisitions whose critical section the \
             failure-relevance closure proves redundant")
    Term.(const run $ setup_logs $ bug_arg $ json)

(* --- stats ------------------------------------------------------------ *)

let stats_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one flat metrics JSON object per bug instead of \
                   the table")
  in
  let run () ids json d =
    let reports = ref [] in
    List.iter
      (fun (bug : Bugs.Bug.t) ->
        (* A per-bug recorder; tee into the invocation-wide sink (from
           --trace-out/--metrics-out) when one is installed, so the
           Chrome trace still sees these runs. *)
        let r = Telemetry.Recorder.create () in
        let sink =
          match Telemetry.Probe.current_sink () with
          | None -> Telemetry.Recorder.sink r
          | Some outer ->
            Telemetry.Sink.tee outer (Telemetry.Recorder.sink r)
        in
        let report =
          Telemetry.Probe.with_sink sink (fun () -> diagnose d bug)
        in
        reports := report :: !reports;
        if json then
          Fmt.pr "%s@."
            (Telemetry.Json.obj
               [ ("bug", Telemetry.Json.str bug.id);
                 ("reproduced",
                  Telemetry.Json.bool
                    (Aitia.Diagnose.reproduced report));
                 ("metrics",
                  Telemetry.Metrics.to_string r) ])
        else (
          Fmt.pr "%s: %s@." bug.id
            (if Aitia.Diagnose.reproduced report then "reproduced"
             else "not reproduced");
          Fmt.pr "  counters:@.";
          List.iter
            (fun (name, v) -> Fmt.pr "    %-42s %10d@." name v)
            (Telemetry.Recorder.counters r);
          Fmt.pr "  spans:%50s %10s@." "count" "total(ms)";
          List.iter
            (fun (name, (s : Telemetry.Recorder.span_stat)) ->
              Fmt.pr "    %-42s %10d %10.2f@." name s.s_count
                (s.s_total_us /. 1000.0))
            (Telemetry.Recorder.span_stats r)))
      (resolve ids);
    exit_of (List.rev !reports)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Diagnose under a telemetry recorder and print the collected \
             metrics: schedule/flip/instruction counters and per-span \
             wall-time rollups")
    Term.(const run $ setup_logs $ bug_arg $ json $ pipeline_term)

(* --- chain ------------------------------------------------------------ *)

let chain_cmd =
  let run () ids d =
    List.iter
      (fun (bug : Bugs.Bug.t) ->
        let report = diagnose d bug in
        match report.chain with
        | Some chain -> Fmt.pr "%-18s %a@." bug.id Aitia.Chain.pp chain
        | None -> Fmt.pr "%-18s (not reproduced)@." bug.id)
      (resolve ids);
    0
  in
  Cmd.v (Cmd.info "chain" ~doc:"Print only the causality chain")
    Term.(const run $ setup_logs $ bug_arg $ diagnosis_term ())

(* --- batch ------------------------------------------------------------ *)

let batch_cmd =
  let manifest_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MANIFEST"
             ~doc:
               "JSON manifest of diagnosis requests: an array (or an \
                object with a $(b,requests) array) of objects, each with \
                a unique $(b,id), a corpus $(b,bug), and optional \
                per-request knobs $(b,prune), $(b,order), \
                $(b,fault_spec), $(b,fault_seed), $(b,max_retries), \
                $(b,step_timeout), $(b,journal), $(b,engine) — with the \
                values of the same $(b,diagnose) flags ($(b,order) \
                orders only the LIFS search; a malformed request \
                rejects the whole manifest, exit 2)")
  in
  (* More workers than the host runs at once only contend (on 2 vCPUs,
     --jobs 4 took twice as long as --jobs 1), so N is capped here;
     Batch.run itself runs as many workers as it is given. *)
  let batch_jobs =
    let cap jobs =
      let most = Hypervisor.Pool.recommended_jobs in
      if jobs <= most then jobs
      else begin
        Fmt.epr
          "aitia: --jobs %d capped at %d, the %s pool backend's \
           recommended worker count@."
          jobs most Hypervisor.Pool.backend;
        most
      end
    in
    Term.(
      const cap
      $ Arg.(value & opt (pos_int ~what:"--jobs") 1
             & info [ "jobs" ] ~docv:"N"
                 ~doc:
                   (Fmt.str
                      "Run up to $(docv) requests concurrently (pool \
                       backend: %s, capped at its recommended worker \
                       count, %d here), each diagnosed sequentially on \
                       its own VMs; outcomes are reported in manifest \
                       order regardless of completion order"
                      Hypervisor.Pool.backend
                      Hypervisor.Pool.recommended_jobs)))
  in
  let journal_dir =
    Arg.(value & opt (some string) None
         & info [ "journal-dir" ] ~docv:"DIR"
             ~doc:
               "Give every request an isolated journal at \
                $(docv)/<id>.journal.json (the directory is created if \
                missing); combine with $(b,--resume) to pick an \
                interrupted batch back up per-request")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "Load the per-request journals from $(b,--journal-dir) \
                or each request's $(b,journal) field instead of \
                truncating them; a request with neither fails (exit 2)")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:
               "Write the consolidated JSON report (overall exit code \
                plus per-request outcomes) to $(docv)")
  in
  let run () manifest jobs journal_dir resume out =
    let requests =
      match Aitia.Batch.manifest_of_file manifest with
      | Ok rqs -> rqs
      | Error e -> usage_error "bad manifest %s: %s" manifest e
    in
    let summary =
      Aitia.Batch.run ~jobs ?journal_dir ~resume ~resolve:case_of_id requests
    in
    Fmt.pr "%-12s %-18s %-4s %-10s %-8s %9s  %s@." "ID" "BUG" "EXIT"
      "REPRODUCED" "DEGRADED" "ELAPSED" "CHAIN/ERROR";
    List.iter
      (fun (o : Aitia.Batch.outcome) ->
        Fmt.pr "%-12s %-18s %-4d %-10s %-8s %8.2fs  %s@." o.o_id o.o_bug
          o.o_exit
          (if o.o_reproduced then "yes" else "no")
          (if o.o_degraded then "yes" else "no")
          o.o_elapsed
          (match (o.o_error, o.o_chain) with
          | Some e, _ -> e
          | None, Some c -> c
          | None, None -> "-"))
      summary.outcomes;
    Option.iter
      (fun file ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc
              (Aitia.Batch.summary_to_json summary ^ "\n")))
      out;
    summary.batch_exit
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a manifest of diagnosis requests with bounded concurrency \
          and write one consolidated report"
       ~exits:
         [ Cmd.Exit.info 0 ~doc:"every request was diagnosed";
           Cmd.Exit.info 1
             ~doc:"some request cleanly failed to reproduce";
           Cmd.Exit.info 2
             ~doc:
               "usage error, malformed manifest, or some request erred \
                (unknown bug, bad fault spec, crash)";
           Cmd.Exit.info 3 ~doc:"some request's diagnosis is degraded" ])
    Term.(const run $ setup_logs $ manifest_arg $ batch_jobs $ journal_dir
          $ resume $ out)

(* --- fuzz ------------------------------------------------------------- *)

(* Indices of the bug's resource-setup threads (serial prologue). *)
let prologue_of (group : Ksim.Program.group) =
  List.filteri
    (fun _ (s : Ksim.Program.thread_spec) -> String.equal s.spec_name "init")
    group.Ksim.Program.threads
  |> List.map (fun (s : Ksim.Program.thread_spec) ->
         let rec index i = function
           | [] -> -1
           | (x : Ksim.Program.thread_spec) :: rest ->
             if String.equal x.spec_name s.spec_name then i
             else index (i + 1) rest
         in
         index 0 group.Ksim.Program.threads)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed")
  in
  let run () ids seed =
    List.iter
      (fun (bug : Bugs.Bug.t) ->
        let case = bug.case () in
        let prologue = prologue_of case.group in
        match
          Fuzz.Fuzzer.run ~seed ~prologue ~subsystem:bug.subsystem case.group
        with
        | Error stats ->
          Fmt.pr "%-18s no crash in %d runs@." bug.id stats.executed
        | Ok finding ->
          Fmt.pr "%-18s crashed after %d run(s): %a@." bug.id
            finding.runs_until_crash Ksim.Failure.pp finding.failure;
          let case' = { case with history = finding.history } in
          let report =
            Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
              case'
          in
          Fmt.pr "%a@." Aitia.Report.pp report)
      (resolve ids);
    0
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz a workload Syzkaller-style, then diagnose the crash")
    Term.(const run $ setup_logs $ bug_arg $ seed)

(* --- compare ---------------------------------------------------------- *)

let compare_cmd =
  let run () ids =
    Fmt.pr "%-18s %-6s %-7s %-5s %-5s@." "ID" "AITIA" "KAIRUX" "CBL" "MUVI";
    List.iter
      (fun (bug : Bugs.Bug.t) ->
        match
          snd
            (Baselines.Requirements.diagnose (fun ~on_run ->
                 diagnose ~on_run defaults bug))
        with
        | None -> Fmt.pr "%-18s (not reproduced)@." bug.id
        | Some ev ->
          let single_variable = bug.variables = Bugs.Bug.Single in
          let cap = Baselines.Requirements.capability ~single_variable ev in
          let b x = if x then "yes" else "no" in
          Fmt.pr "%-18s %-6s %-7s %-5s %-5s@." bug.id (b cap.cap_aitia)
            (b cap.cap_kairux) (b cap.cap_cbl) (b cap.cap_muvi))
      (resolve ids);
    0
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare AITIA against Kairux / CBL / MUVI on a bug (Sec 5.3)")
    Term.(const run $ setup_logs $ bug_arg)

let main =
  let info =
    Cmd.info "aitia" ~version:"1.0.0"
      ~doc:"Root-cause diagnosis of kernel concurrency failures (EuroSys'23)"
  in
  Cmd.group info
    [ list_cmd; diagnose_cmd; analyze_cmd; lint_cmd; stats_cmd; chain_cmd;
      batch_cmd; fuzz_cmd; compare_cmd ]

(* Map Cmdliner outcomes onto the documented exit codes: subcommands
   return their own status (0 / 1 / 3), and every usage or
   configuration error — unknown option, malformed --fault-spec,
   negative --max-retries — exits 2. *)
let () =
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok status) -> status
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
