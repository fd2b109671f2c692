(* A DataCollider-style sampling race detector (Erickson et al.,
   OSDI'10), the detector §2.3 quotes: "104 data races out of 113
   detected races were benign".

   The original samples a memory-accessing instruction, traps the thread
   just before it, plants a hardware watchpoint on the address, stalls
   for a delay window while other threads run, and reports a race if
   anything else touches the location.  We reproduce the mechanics with
   a policy that suspends the sampled thread at the sampled instruction
   for a window of steps — demonstrating why raw detection output
   drowns developers in benign races, which is what Causality Analysis
   is for. *)

module Iid = Ksim.Access.Iid

type report = {
  sampled : Ksim.Access.t;    (* the trapped access *)
  racing : Ksim.Access.t;     (* the conflicting access in the window *)
}

type result = {
  races : report list;        (* deduplicated by static pair *)
  rounds : int;
  traps_placed : int;
}

let race_key (r : report) =
  Fmt.str "%s/%s-%s/%s"
    (Fmt.str "%d" r.sampled.iid.Iid.tid)
    r.sampled.iid.Iid.label
    (Fmt.str "%d" r.racing.iid.Iid.tid)
    r.racing.iid.Iid.label

(* One detection round: run under a round-robin-ish policy; when
   [victim]'s next instruction is the sampled (label, occ), stall it for
   [window] steps while the other threads run, watching the location. *)
let round ~group ~prologue ~(rng : Fuzz.Rng.t) ~window
    ~(sample : Iid.t * Ksim.Addr.t) : report option =
  let target_iid, watched = sample in
  let stalling = ref false in
  let stall_left = ref 0 in
  let hit : report option ref = ref None in
  let sampled_access = ref None in
  let policy m =
    let runnable = Ksim.Machine.runnable m in
    let victim = target_iid.Iid.tid in
    let at_trap =
      Ksim.Machine.has_thread m victim
      && (not (Ksim.Machine.is_done m victim))
      && (match Ksim.Machine.next_label m victim with
         | Some l ->
           String.equal l target_iid.Iid.label
           && Ksim.Machine.occurrences m victim l + 1 = target_iid.Iid.occ
         | None -> false)
    in
    if at_trap && not !stalling then (
      stalling := true;
      stall_left := window);
    if !stalling && !stall_left > 0 then (
      decr stall_left;
      (* the victim is parked on the trap; run anyone else *)
      match List.filter (fun t -> t <> victim) runnable with
      | [] ->
        stalling := false;
        (match runnable with [] -> None | t :: _ -> Some t)
      | others -> Some (Fuzz.Rng.pick rng others))
    else
      match runnable with
      | [] -> None
      | xs -> Some (Fuzz.Rng.pick rng xs)
  in
  let policy = Hypervisor.Schedule.with_prologue prologue policy in
  let o =
    Hypervisor.Controller.run (Ksim.Engine.boot Ksim.Engine.default group)
      policy
  in
  (* Scan the trace: the first access to the watched location by another
     thread while the victim was parked before its sampled access. *)
  let victim_done = ref false in
  let colliding : Ksim.Access.t option ref = ref None in
  List.iter
    (fun (e : Ksim.Machine.event) ->
      if Iid.equal e.iid target_iid then (
        victim_done := true;
        sampled_access := e.access);
      match e.access with
      | Some a
        when (not !victim_done)
             && e.iid.Iid.tid <> target_iid.Iid.tid
             && Ksim.Addr.overlaps a.addr watched
             && !colliding = None ->
        colliding := Some a
      | _ -> ())
    o.trace;
  (match !colliding, !sampled_access with
  | Some racing, Some sampled -> hit := Some { sampled; racing }
  | _, _ -> ());
  match !hit with
  | Some { sampled; racing }
    when Ksim.Access.is_write racing || Ksim.Access.is_write sampled ->
    Some { sampled; racing }
  | Some _ | None -> None

(* Sample [rounds] random accesses from a profiling run and trap each. *)
let detect ?(rounds = 64) ?(window = 200) ?(seed = 99) ~prologue group :
    result =
  let rng = Fuzz.Rng.create seed in
  (* Profile with a random schedule to learn the access population. *)
  let profile =
    let policy =
      Hypervisor.Schedule.with_prologue prologue
        (Fuzz.Fuzzer.random_policy (Fuzz.Rng.split rng))
    in
    Hypervisor.Controller.run (Ksim.Engine.boot Ksim.Engine.default group)
      policy
  in
  let population =
    List.filter_map
      (fun (e : Ksim.Machine.event) ->
        match e.access with
        | Some a when not (List.mem e.iid.Iid.tid prologue) ->
          Some (e.iid, a.addr)
        | _ -> None)
      profile.trace
  in
  if population = [] then { races = []; rounds; traps_placed = 0 }
  else (
    let seen = Hashtbl.create 32 in
    let races = ref [] in
    let traps = ref 0 in
    for _ = 1 to rounds do
      let sample = Fuzz.Rng.pick rng population in
      incr traps;
      match
        round ~group ~prologue ~rng:(Fuzz.Rng.split rng) ~window ~sample
      with
      | Some r ->
        let k = race_key r in
        if not (Hashtbl.mem seen k) then (
          Hashtbl.add seen k ();
          races := r :: !races)
      | None -> ()
    done;
    { races = List.rev !races; rounds; traps_placed = !traps })

(* How many detected races does the ground-truth chain actually need?
   Everything else is the benign burden the paper's §2.3 describes. *)
let benign_fraction (r : result) (chain : Aitia.Chain.t) =
  let chain_pairs =
    List.concat_map
      (fun (race : Aitia.Race.t) ->
        [ (race.first.iid.Iid.label, race.second.iid.Iid.label);
          (race.second.iid.Iid.label, race.first.iid.Iid.label) ])
      (Aitia.Chain.races chain)
  in
  let harmful =
    List.filter
      (fun rep ->
        List.mem
          (rep.sampled.iid.Iid.label, rep.racing.iid.Iid.label)
          chain_pairs)
      r.races
  in
  let total = List.length r.races in
  if total = 0 then 0.0
  else float_of_int (total - List.length harmful) /. float_of_int total

let pp ppf r =
  Fmt.pf ppf "%d race(s) from %d traps" (List.length r.races) r.traps_placed
