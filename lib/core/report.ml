(* Human-readable diagnosis reports with instruction-level information
   (function names and line numbers of the modeled kernel source). *)

let pp_lifs_stats ppf (s : Lifs.stats) =
  Fmt.pf ppf
    "LIFS: %d schedule(s)%a, %d pruned%a%a%a, interleaving count %d, %.1f \
     simulated s"
    s.schedules
    (fun ppf n -> if n > 0 then Fmt.pf ppf " (+%d trace-equivalent)" n)
    s.trace_equivalent s.pruned
    (fun ppf n ->
      if n > 0 then Fmt.pf ppf " (+%d statically guarded)" n)
    s.static_pruned
    (fun ppf n ->
      if n > 0 then Fmt.pf ppf " (+%d invariant-pruned)" n)
    s.invariant_pruned
    (fun ppf n -> if n > 0 then Fmt.pf ppf " (%d gain reorderings)" n)
    s.gain_reorderings s.interleavings s.simulated

let pp_ca_stats ppf (s : Causality.stats) =
  Fmt.pf ppf "Causality Analysis: %d schedule(s)%s, %.1f simulated s"
    s.schedules
    (if s.flips_statically_pruned > 0 then
       Fmt.str " (+%d flip(s) statically pruned)" s.flips_statically_pruned
     else "")
    s.simulated

(* Look up the source location of a racing instruction in the case's
   programs. *)
let locate (case : Diagnose.case) (iid : Ksim.Access.Iid.t) :
    Ksim.Program.loc option =
  let find_in (p : Ksim.Program.t) =
    match Ksim.Program.position_of_label p iid.label with
    | i -> Some (Ksim.Program.get p i).src
    | exception Ksim.Program.Unknown_label _ -> None
  in
  let progs =
    List.map (fun (s : Ksim.Program.thread_spec) -> s.program)
      case.group.Ksim.Program.threads
    @ List.map snd case.group.Ksim.Program.entries
  in
  List.find_map find_in progs

let pp_race_with_source case ppf (r : Race.t) =
  let loc ppf iid =
    match locate case iid with
    | Some { func; line } -> Fmt.pf ppf "%s:%d" func line
    | None -> Fmt.string ppf "?"
  in
  Fmt.pf ppf "%a [%a] => %a [%a] on %a%s" Ksim.Access.Iid.pp_full
    r.first.iid loc r.first.iid Ksim.Access.Iid.pp_full r.second.iid loc
    r.second.iid Ksim.Addr.pp r.first.addr
    (if Race.is_cs_order r then " [critical-section order]" else "")

let pp ppf (r : Diagnose.report) =
  Fmt.pf ppf "=== AITIA diagnosis: %s (%s) ===@." r.case.case_name
    r.case.subsystem;
  Fmt.pf ppf "crash: %a@." Trace.Crash.pp
    (Trace.History.crash r.case.history);
  Fmt.pf ppf "slices tried: %d" r.slices_tried;
  (match r.slice_threads with
  | [] -> Fmt.pf ppf "@."
  | ts ->
    Fmt.pf ppf " (reproducing slice: %a)@."
      (Fmt.list ~sep:Fmt.comma Fmt.string) ts);
  Fmt.pf ppf "%a@." pp_lifs_stats r.lifs.stats;
  (match r.lifs.found with
  | None -> Fmt.pf ppf "failure NOT reproduced@."
  | Some s ->
    Fmt.pf ppf "reproduced: %a@." Ksim.Failure.pp s.failure;
    let accesses =
      List.filter
        (fun (e : Ksim.Machine.event) -> e.access <> None)
        s.outcome.trace
    in
    let shown, elided =
      if List.length accesses <= 24 then (accesses, 0)
      else
        (List.filteri (fun i _ -> i < 24) accesses, List.length accesses - 24)
    in
    Fmt.pf ppf "failure-causing sequence: %a%s@."
      (Fmt.list ~sep:(Fmt.any " => ") (fun ppf (e : Ksim.Machine.event) ->
           Ksim.Access.Iid.pp ppf e.iid))
      shown
      (if elided > 0 then Fmt.str " => ... (%d more)" elided else ""));
  (match r.causality with
  | None -> ()
  | Some ca ->
    Fmt.pf ppf "%a@." pp_ca_stats ca.stats;
    Fmt.pf ppf "root-cause races (%d):@." (List.length ca.root_causes);
    List.iter
      (fun race -> Fmt.pf ppf "  %a@." (pp_race_with_source r.case) race)
      ca.root_causes;
    Fmt.pf ppf "benign races excluded: %d@." (List.length ca.benign);
    if ca.ambiguous <> [] then
      Fmt.pf ppf "ambiguous races: %a@."
        (Fmt.list ~sep:Fmt.comma Race.pp_short)
        ca.ambiguous);
  (match r.chain with
  | None -> ()
  | Some chain -> Fmt.pf ppf "causality chain:@.  %a@." Chain.pp chain);
  (match r.metrics with
  | None -> ()
  | Some m ->
    Fmt.pf ppf
      "conciseness: %d memory-accessing instructions, %d data races, %d in \
       chain@."
      m.mem_accessing_instrs m.races_detected m.races_in_chain);
  (* Resilience lines appear only when fault injection or the resilient
     executor actually did something, so fault-free reports stay
     byte-identical to the pre-resilience rendering. *)
  (if r.faults_injected > 0
      ||
      match r.resilience with
      | Some res ->
        res.Resilience.stats.retries > 0
        || res.Resilience.stats.quorum_runs > 0
        || res.Resilience.stats.gave_up > 0
      | None -> false
   then
     let res = r.resilience in
     Fmt.pf ppf "resilience: %d fault(s) injected%a@." r.faults_injected
       (fun ppf -> function
         | Some res -> Fmt.pf ppf ", %a" Resilience.pp_stats res
         | None -> ())
       res);
  if r.degraded then
    Fmt.pf ppf
      "DEGRADED: retry budget exhausted or quorum disagreed — the chain \
       is partial%s@."
      (match r.chain with
      | Some chain when not (Chain.certain (Chain.min_confidence chain)) ->
        Fmt.str " (weakest verdict confidence ~%.0f%%)"
          (100. *. Chain.min_confidence chain)
      | _ -> "")

let to_string r = Fmt.str "%a" pp r

(* Exit codes, for scripting (2, a usage or request error, is raised by
   the callers). *)
let exit_code (r : Diagnose.report) : int =
  if r.Diagnose.degraded then 3 else if Diagnose.reproduced r then 0 else 1

(* An error hides everything, a clean non-reproduction hides a degraded
   diagnosis. *)
let worst_exit (codes : int list) : int =
  Option.value ~default:0
    (List.find_opt (fun c -> List.mem c codes) [ 2; 1; 3 ])
