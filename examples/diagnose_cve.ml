(* Walk through the paper's central example, CVE-2017-15649 (Figure 2),
   showing each stage of the pipeline in detail: the slice, the LIFS
   reproduction, the Causality Analysis flip log (Figure 6), and the
   final causality chain (Figure 3).

     dune exec examples/diagnose_cve.exe *)

let () =
  let bug = Bugs.Cve_2017_15649.bug in
  let case = bug.case () in
  Fmt.pr "=== %s — %s ===@." bug.id bug.description;

  (* Stage 1: modeling.  The execution history is sliced backward from
     the failure point. *)
  let slices = Trace.Slicer.slices case.history in
  Fmt.pr "@.[modeling] %d candidate slice(s); nearest to the failure:@."
    (List.length slices);
  let slice = List.hd slices in
  Fmt.pr "  %a@." Trace.Slicer.pp slice;

  (* Stage 2: reproducing with LIFS. *)
  let group, prologue =
    match Aitia.Diagnose.realize case slice with
    | Some x -> x
    | None -> failwith "slice not realizable"
  in
  let crash = Trace.History.crash case.history in
  let vm = Hypervisor.Vm.create group in
  let lifs =
    Aitia.Lifs.search ~prologue vm ~target:(Trace.Crash.matches crash) ()
  in
  Fmt.pr
    "@.[reproducing] %d schedules run, %d derived as trace-equivalent, %d \
     pruned as equivalent, interleaving count %d, %.1f simulated s@."
    lifs.stats.schedules lifs.stats.trace_equivalent lifs.stats.pruned
    lifs.stats.interleavings lifs.stats.simulated;
  let success =
    match lifs.found with
    | Some s -> s
    | None -> failwith "not reproduced"
  in
  Fmt.pr "  failure: %a@." Ksim.Failure.pp success.failure;
  Fmt.pr "  data races in the failure-causing sequence: %d@."
    (List.length success.races);

  (* Stage 3: diagnosing with Causality Analysis (the Figure 6 steps). *)
  let ca_vm = Hypervisor.Vm.create group in
  let ca =
    Aitia.Causality.analyze ~prologue ca_vm ~failing:success.outcome
      ~races:success.races ()
  in
  Fmt.pr "@.[diagnosing] flip log (backward from the failure):@.";
  List.iteri
    (fun i (t : Aitia.Causality.tested) ->
      Fmt.pr "  step %2d: flip %-24s -> %s@." (i + 1)
        (Fmt.str "%a" Aitia.Race.pp_short t.race)
        (match t.verdict with
        | Aitia.Causality.Root_cause -> "no failure  => root cause"
        | Aitia.Causality.Benign -> "still fails => benign"))
    ca.tested;
  Fmt.pr "  root causes: %d, benign races excluded: %d@."
    (List.length ca.root_causes)
    (List.length ca.benign);

  (* Stage 4: the causality chain. *)
  let chain = Aitia.Chain.of_causality ca ~failure:success.failure in
  Fmt.pr "@.[output] causality chain:@.  %a@." Aitia.Chain.pp chain;
  Fmt.pr
    "@.The kernel developers' fix makes po->running and po->fanout \
     accessed atomically — exactly the conjunction at the head of the \
     chain.@."
