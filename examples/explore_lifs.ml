(* Visualize the Least Interleaving First Search on the Figure 5 example:
   every schedule it runs, in order, with its interleaving count, verdict
   and the partial-order-reduction skips.

     dune exec examples/explore_lifs.exe *)

let () =
  let bug = Bugs.Fig5_search.bug in
  let case = bug.case () in
  let crash = Trace.History.crash case.history in
  let slice = List.hd (Trace.Slicer.slices case.history) in
  let group, prologue =
    match Aitia.Diagnose.realize case slice with
    | Some x -> x
    | None -> failwith "slice not realizable"
  in
  let vm = Hypervisor.Vm.create group in
  Fmt.pr "LIFS search tree over %s (threads A, B + dynamic kworker K):@.@."
    case.case_name;
  let last_inter = ref (-1) in
  let order = ref 0 in
  let on_run (sched : Hypervisor.Schedule.preemption)
      (o : Hypervisor.Controller.outcome) =
    incr order;
    let inter = Hypervisor.Schedule.interleaving_count sched in
    if inter <> !last_inter then (
      last_inter := inter;
      Fmt.pr "--- interleaving count %d ---@." inter);
    let accesses =
      List.filter_map (fun (e : Ksim.Machine.event) -> e.access) o.trace
    in
    Fmt.pr "search order %2d: %-40s -> %a@." !order
      (Fmt.str "%a"
         (Fmt.list ~sep:(Fmt.any " ") (fun ppf (a : Ksim.Access.t) ->
              Ksim.Access.Iid.pp ppf a.iid))
         accesses)
      Hypervisor.Controller.pp_verdict o.verdict
  in
  let result =
    Aitia.Lifs.search ~prologue ~on_run vm
      ~target:(Trace.Crash.matches crash) ()
  in
  Fmt.pr "@.%d schedule(s) executed, %d pruned as equivalent (the 'skip' \
          nodes of Figure 5)@."
    result.stats.schedules result.stats.pruned;
  match result.found with
  | Some s ->
    Fmt.pr "failure reproduced at interleaving count %d: %a@."
      result.stats.interleavings Ksim.Failure.pp s.failure;
    Fmt.pr "failure-causing sequence: %a@."
      (Fmt.list ~sep:(Fmt.any " => ") (fun ppf (e : Ksim.Machine.event) ->
           Ksim.Access.Iid.pp ppf e.iid))
      (List.filter
         (fun (e : Ksim.Machine.event) -> e.access <> None)
         s.outcome.trace)
  | None -> Fmt.pr "not reproduced@."
