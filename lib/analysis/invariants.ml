(* Error-invariant lint (after Holzer et al., "Error Invariants for
   Concurrent Traces").

   An error invariant over-approximates what a failing trace needs at
   a point to keep failing.  Over the failure-relevance closure
   ({!Absdom}) that shows up statically: a critical section whose body
   touches only locations outside the closure guards nothing the
   failure depends on.  The same closure drives the LIFS class
   collapse (Diagnose builds it per case); Causality Analysis prunes
   flips with Flipfeas alone and runs every other flip on the VM. *)

module I = Ksim.Instr

(* A lock acquisition is redundant (w.r.t. the failure predicate) when
   its critical section provably guards nothing relevant: every
   instruction inside is straight-line, spawns nothing, frees nothing,
   asserts nothing and touches only locations outside the relevance
   closure.  Reported by `aitia lint` as advisory findings with the
   witness segment. *)

type redundant = {
  red_thread : string;  (* thread spec / entry name *)
  red_lock : string;
  red_start : string;  (* label of the Lock *)
  red_stop : string;  (* label of the matching Unlock *)
  red_body : int;  (* instructions inside the section *)
}

let pp_redundant ppf r =
  Fmt.pf ppf "%s: lock %s section %s..%s (%d instr(s))" r.red_thread
    r.red_lock r.red_start r.red_stop r.red_body

let section_irrelevant rel (instrs : Ksim.Program.labeled list) =
  List.for_all
    (fun (l : Ksim.Program.labeled) ->
      match l.instr with
      | I.Branch_if _ | I.Goto _ | I.Return | I.Lock _ | I.Unlock _
      | I.Free _ | I.Queue_work _ | I.Call_rcu _ | I.Arm_timer _
      | I.Enable_irq _ | I.Bug_on _ | I.Warn_on _ -> false
      | I.Nop | I.Assign _ | I.Alloc _ -> true
      | I.Load _ | I.Store _ | I.Rmw _ | I.List_add _ | I.List_del _
      | I.List_contains _ | I.List_empty _ | I.List_first _ | I.Ref_get _
      | I.Ref_put _ -> (
        match Absaddr.of_instr l.instr with
        | None -> true
        | Some (a, _) -> not (Absdom.mem_abs rel a)))
    instrs

let redundant_in_program rel ~thread (p : Ksim.Program.t) =
  let out = ref [] in
  let n = Ksim.Program.length p in
  for i = 0 to n - 1 do
    match (Ksim.Program.get p i).instr with
    | I.Lock l ->
      let rec find_unlock j body =
        if j >= n then None
        else
          let lj = Ksim.Program.get p j in
          match lj.instr with
          | I.Unlock l' when String.equal l l' -> Some (lj, List.rev body)
          | _ -> find_unlock (j + 1) (lj :: body)
      in
      (match find_unlock (i + 1) [] with
      | Some (unlock, body) when section_irrelevant rel body ->
        out :=
          { red_thread = thread;
            red_lock = l;
            red_start = (Ksim.Program.get p i).label;
            red_stop = unlock.label;
            red_body = List.length body }
          :: !out
      | _ -> ())
    | _ -> ()
  done;
  List.rev !out

let redundant_sections ?relevance (group : Ksim.Program.group) :
    redundant list =
  let rel =
    match relevance with Some r -> r | None -> Absdom.of_group group
  in
  List.concat_map
    (fun (s : Ksim.Program.thread_spec) ->
      redundant_in_program rel ~thread:s.spec_name s.program)
    group.Ksim.Program.threads
  @ List.concat_map
      (fun (name, p) -> redundant_in_program rel ~thread:name p)
      group.Ksim.Program.entries
