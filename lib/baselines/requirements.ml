(* Scoring the three root-cause-diagnosis requirements of §2 for AITIA
   and the implemented comparators, over a diagnosed bug (Table 1 and
   the §5.3 capability comparison).

   - Comprehensive: the tool's output carries every data race a fix must
     regulate (the ground-truth causality chain).
   - Pattern-agnostic: the tool reaches a verdict without the bug having
     to fit a predefined pattern or assumption.
   - Concise: the output contains no failure-irrelevant information
     (benign races). *)

type verdict = Satisfied | Conditional | Unsatisfied

let pp_verdict ppf = function
  | Satisfied -> Fmt.string ppf "yes"
  | Conditional -> Fmt.string ppf "cond"
  | Unsatisfied -> Fmt.string ppf "no"

let glyph = function
  | Satisfied -> "v"
  | Conditional -> "^"
  | Unsatisfied -> "-"

type score = {
  tool : string;
  comprehensive : verdict;
  pattern_agnostic : verdict;
  concise : verdict;
}

type evidence = {
  (* Ground truth from AITIA's diagnosis of one bug. *)
  report : Aitia.Diagnose.report;
  failing : Hypervisor.Controller.outcome;
  passing : Hypervisor.Controller.outcome list;
}

let chain_of e =
  match e.report.chain with
  | Some c -> c
  | None -> invalid_arg "Requirements: bug was not diagnosed"

(* Run an AITIA diagnosis and build the evidence from it: the baselines
   get the same failing execution and the passing runs LIFS explored on
   the reproducing slice, gathered through the diagnosis's [on_run]
   hook as they happen. *)
let diagnose run : Aitia.Diagnose.report * evidence option =
  let passing = ref [] in  (* (slice, outcome), newest first *)
  let on_run ~slice _ (o : Hypervisor.Controller.outcome) =
    match o.verdict with
    | Hypervisor.Controller.Completed -> passing := (slice, o) :: !passing
    | _ -> ()
  in
  let (report : Aitia.Diagnose.report) = run ~on_run in
  let evidence =
    match report.lifs.found with
    | None -> None
    | Some success ->
      let passing =
        List.rev !passing
        |> List.filter_map (fun (slice, o) ->
               if slice = report.slices_tried - 1 then Some o else None)
      in
      Some { report; failing = success.outcome; passing }
  in
  (report, evidence)

(* Per-bug capability of each tool: did it fully explain this bug? *)
type capability = {
  cap_aitia : bool;
  cap_kairux : bool;
  cap_cbl : bool;
  cap_muvi : bool;
}

(* Extra production-style passing runs: cooperative bug localization
   draws its statistics from many executions, not just the handful LIFS
   needed.  Threads named "init" are the resource-setup prologue by
   corpus convention. *)
let production_runs ?(count = 40) (group : Ksim.Program.group) :
    Hypervisor.Controller.outcome list =
  let prologue =
    List.filteri
      (fun i (s : Ksim.Program.thread_spec) ->
        ignore i;
        String.equal s.spec_name "init")
      group.Ksim.Program.threads
    |> List.map (fun (s : Ksim.Program.thread_spec) ->
           let rec index i = function
             | [] -> -1
             | (x : Ksim.Program.thread_spec) :: rest ->
               if String.equal x.spec_name s.spec_name then i
               else index (i + 1) rest
           in
           index 0 group.Ksim.Program.threads)
  in
  let rng = Fuzz.Rng.create 4242 in
  List.init count (fun _ ->
      let m = Ksim.Engine.boot Ksim.Engine.default group in
      let policy =
        Hypervisor.Schedule.with_prologue prologue
          (Fuzz.Fuzzer.random_policy (Fuzz.Rng.split rng))
      in
      Hypervisor.Controller.run m policy)
  |> List.filter (fun (o : Hypervisor.Controller.outcome) ->
         o.verdict = Hypervisor.Controller.Completed)

let capability ~(single_variable : bool) (e : evidence) : capability =
  let chain = chain_of e in
  let extra = production_runs e.report.case.group in
  let passing = e.passing @ extra in
  let kairux = Kairux.analyze ~failing:e.failing ~passing in
  let cbl = Coop_bug_localization.analyze ~failing:[ e.failing ] ~passing in
  let muvi = Muvi.analyze (e.failing :: passing) in
  { cap_aitia = true;
    cap_kairux = Kairux.covers_chain kairux chain;
    cap_cbl = Coop_bug_localization.covers_chain ~single_variable cbl chain;
    cap_muvi = Muvi.covers_chain muvi chain }

(* Aggregate Table 1 over a set of diagnosed bugs. *)
let table1 (caps : capability list) : score list =
  let frac f =
    let hits = List.length (List.filter f caps) in
    float_of_int hits /. float_of_int (max 1 (List.length caps))
  in
  let band x =
    if x >= 0.99 then Satisfied
    else if x > 0.0 then Conditional
    else Unsatisfied
  in
  [ { tool = "AITIA";
      comprehensive = band (frac (fun c -> c.cap_aitia));
      pattern_agnostic = band (frac (fun c -> c.cap_aitia));
      (* Conciseness measured separately: chains carry no benign races. *)
      concise = Satisfied };
    { tool = "Kairux";
      (* A single inflection point: comprehensive only for 1-race chains. *)
      comprehensive = band (frac (fun c -> c.cap_kairux));
      pattern_agnostic = Satisfied;
      concise = Satisfied };
    { tool = "CBL (Snorlax/Gist/CCI)";
      comprehensive = band (frac (fun c -> c.cap_cbl));
      pattern_agnostic = Unsatisfied;
      concise = Satisfied };
    { tool = "MUVI";
      comprehensive = band (frac (fun c -> c.cap_muvi));
      pattern_agnostic = Unsatisfied;
      concise = Satisfied };
    { tool = "Failure reproduction (REPT/RR)";
      (* Replaying the failed execution shows everything that happened —
         comprehensive and assumption-free but buried in benign races. *)
      comprehensive = Satisfied;
      pattern_agnostic = Satisfied;
      concise = Unsatisfied } ]

let pp_score ppf s =
  let v x = Fmt.str "%a" pp_verdict x in
  Fmt.pf ppf "%-30s %-6s %-6s %-6s" s.tool (v s.comprehensive)
    (v s.pattern_agnostic) (v s.concise)
