(* Schedules: how LIFS and Causality Analysis tell the hypervisor what to
   run.

   Two forms mirror the paper's two stages:

   - A {e preemption schedule} (reproduce schedule, §4.3): an initial
     thread order plus a list of scheduling points "after thread T
     executes instruction I, switch to thread U".  Between points each
     thread runs to completion (the suspended ones sit in the
     trampoline).

   - A {e plan schedule} (diagnosis schedule, §4.5): a total order of
     dynamic instructions to enforce, produced by reordering a
     failure-causing sequence.  Control flow may diverge from the plan —
     that is precisely the race-steered behaviour Causality Analysis
     observes — so enforcement is best-effort with bounded run-through,
     and liveness is preserved by running lock holders when the planned
     thread blocks. *)

module Iid = Ksim.Access.Iid

type switch = {
  after : Iid.t;     (* preempt the thread that executed this instruction *)
  switch_to : int;   (* and hand the CPU to this thread *)
}

type preemption = {
  order : int list;          (* queue of top-level thread ids *)
  switches : switch list;    (* consumed in list order *)
}

let serial order = { order; switches = [] }

let pp_switch ppf s =
  Fmt.pf ppf "after %a -> t%d" Iid.pp_full s.after s.switch_to

let pp_preemption ppf p =
  Fmt.pf ppf "order=[%a] switches=[%a]"
    (Fmt.list ~sep:Fmt.comma Fmt.int) p.order
    (Fmt.list ~sep:Fmt.semi pp_switch) p.switches

(* Number of forced interleavings — the paper's "interleaving count". *)
let interleaving_count p = List.length p.switches

(* A key identifying a preemption schedule, for memoization within one
   process.  Besides injective it is prefix-free: '|' ends the order and
   ';' ends the switch list where a switch's first field would start, so
   no key is a proper prefix of another and appending fields to a key
   (as LIFS equivalence signatures do) never yields another schedule's
   key. *)
let preemption_key p =
  let b = Buffer.create 64 in
  List.iter (Ksim.Key.int b) p.order;
  Buffer.add_char b '|';
  List.iter
    (fun { after; switch_to } ->
      Ksim.Key.iid b after;
      Ksim.Key.int b switch_to)
    p.switches;
  Buffer.add_char b ';';
  Buffer.contents b

(* --- preemption policy ------------------------------------------------ *)

(* An instruction a policy waits for, resolved to a pc of its thread
   once that thread exists; the policies then compare ints at every
   step instead of hashing labels.  [unresolved] until the thread
   exists, [-1] for a label its program lacks, which never executes. *)
let unresolved = -2

let resolve m tid label =
  match Ksim.Machine.pc_of_label m tid label with Some pc -> pc | None -> -1

(* The first thread of [q] that can step. *)
let rec first_steppable m = function
  | [] -> None
  | t :: rest ->
    if Ksim.Machine.can_step m t then Some t else first_steppable m rest

(* The run queue: head is the active thread.  Spawned threads are
   inserted immediately after their spawner, modeling kworkerd/RCU work
   that becomes runnable as soon as it is queued.  The active thread runs
   until it finishes, blocks, or hits a scheduling point. *)
let preemption_policy (p : preemption) : Controller.policy =
  let queue = ref p.order in
  let pending = ref p.switches in
  let trigger_pc = ref unresolved in  (* of the head pending switch *)
  (* Thread ids are dense and never retired, so every id below [seen_n]
     has been considered for the queue and a new thread is exactly an
     id at or above it.  The first call walks every thread (the initial
     queue need not hold them all: prologue threads are left out);
     later calls do O(1) work unless a thread was spawned. *)
  let seen_n = ref 0 in
  (* Insert a freshly spawned thread after its spawner — and after any
     earlier-spawned siblings already queued there, so deferred work
     keeps its FIFO order. *)
  let insert_after m parent tid q =
    let is_child y = Ksim.Machine.thread_parent m y = Some parent in
    let rec go = function
      | [] -> [ tid ]
      | x :: rest when x = parent ->
        let rec skip_siblings acc = function
          | y :: more when is_child y -> skip_siblings (y :: acc) more
          | remaining -> List.rev_append acc (tid :: remaining)
        in
        x :: skip_siblings [] rest
      | x :: rest -> x :: go rest
    in
    go q
  in
  let to_front tid q = tid :: List.filter (fun x -> x <> tid) q in
  fun m ->
    (* Fold spawn and switch effects of the previous step lazily: we
       inspect the machine to learn about new threads, in ascending id
       order. *)
    while Ksim.Machine.has_thread m !seen_n do
      let t = !seen_n in
      incr seen_n;
      if not (List.mem t !queue) then
        match Ksim.Machine.thread_parent m t with
        | Some parent -> queue := insert_after m parent t !queue
        | None -> queue := !queue @ [ t ]
    done;
    (* Apply a pending switch if its trigger has executed. *)
    (match !pending with
    | { after; switch_to } :: rest ->
      let tid = after.Iid.tid in
      if Ksim.Machine.has_thread m tid then (
        if !trigger_pc = unresolved then
          trigger_pc := resolve m tid after.Iid.label;
        let count =
          if !trigger_pc < 0 then 0
          else Ksim.Machine.occurrences_at m tid !trigger_pc
        in
        if count >= after.Iid.occ then (
          pending := rest;
          trigger_pc := unresolved;
          queue := to_front switch_to !queue))
    | [] -> ());
    (* Run the first runnable thread in queue order. *)
    first_steppable m !queue

(* --- prologue --------------------------------------------------------- *)

(* Prologue threads (resource-setup system calls pulled in by the
   slicer) run to completion, in order, before the wrapped policy takes
   over; a blocked prologue thread gives up the run.  A thread never
   stops being done within a run, so the finished head of the prologue
   is dropped for good (the policy is one-shot, like every policy here)
   and once the whole prologue is done each call goes straight to the
   wrapped policy. *)
let with_prologue (prologue : int list) (policy : Controller.policy) :
    Controller.policy =
  let remaining = ref prologue in
  fun m ->
    let rec pick = function
      | [] ->
        remaining := [];
        policy m
      | tid :: rest as l ->
        if Ksim.Machine.is_done m tid then pick rest
        else (
          remaining := l;
          if Ksim.Machine.can_step m tid then Some tid else None)
    in
    match !remaining with [] -> policy m | l -> pick l

(* --- plan schedules --------------------------------------------------- *)

type plan = { events : Iid.t list (* total order to enforce *) }

let plan events = { events }

(* Divergence tolerance per planned event: the steps its thread may
   take off the planned path (a race-steered control flow) before the
   event is dropped. *)
let run_through_budget = 2_000

let pp_plan ppf p =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any " => ") Iid.pp_full) p.events

let plan_policy (p : plan) : Controller.policy =
  let remaining = ref p.events in
  let budget = ref run_through_budget in
  let head_pc = ref unresolved in  (* of the head planned event *)
  let advance rest =
    remaining := rest;
    budget := run_through_budget;
    head_pc := unresolved
  in
  fun m ->
    let rec decide () =
      match !remaining with
      | [] -> Ksim.Machine.first_runnable m
      | ev :: rest -> (
        let tid = ev.Iid.tid in
        let drop () =
          advance rest;
          decide ()
        in
        if not (Ksim.Machine.has_thread m tid) then drop ()
        else
          let next = Ksim.Machine.next_pc m tid in
          if next < 0 then drop ()  (* thread finished before the planned event *)
          else if Ksim.Machine.can_step m tid then (
            if !head_pc = unresolved then head_pc := resolve m tid ev.Iid.label;
            if
              next = !head_pc
              && Ksim.Machine.occurrences_at m tid next + 1 = ev.Iid.occ
            then (
              (* Stepping [tid] now executes exactly [ev]. *)
              advance rest;
              Some tid)
            else if !budget > 0 then (
              (* Control flow diverged from the plan (race-steered):
                 run the thread through the new path, hoping it
                 reconverges on the planned instruction. *)
              decr budget;
              Some tid)
            else drop ())
          else
            (* Planned thread blocked on a lock: preserve liveness by
               running the holder (the paper's critical-section rule
               keeps planned flips away from lock cycles; this is the
               runtime backstop). *)
            match Ksim.Machine.blocked_on m tid with
            | Some lock -> (
              match Ksim.Machine.lock_holder m lock with
              | Some holder when Ksim.Machine.can_step m holder -> Some holder
              | Some _ | None -> None)
            | None -> drop ())
    in
    decide ()
