(* The generic schedule-enforcement loop.

   This is our KVM/QEMU analogue: where the AITIA hypervisor installs
   breakpoints, parks threads in the trampoline and resumes them per the
   schedule, our controller steps the persistent machine one instruction
   at a time, asking a policy which thread to run next.  A thread that the
   policy does not pick is exactly a trampoline-suspended thread: it stays
   responsive (its lock state and spawn events remain visible) but makes
   no progress. *)

type verdict =
  | Completed                    (* every thread ran to the end, no failure *)
  | Failed of Ksim.Failure.t
  | Deadlock                     (* live threads but none runnable *)
  | Step_limit                   (* watchdog: the run did not converge *)

type outcome = {
  verdict : verdict;
  trace : Ksim.Machine.event list;  (* in execution order *)
  final : Ksim.Machine.t;
  steps : int;
}

let is_failure o = match o.verdict with Failed _ -> true | _ -> false

(* A policy sees the machine and picks a thread, or [None] to give up
   (treated as deadlock if threads remain).  The loop calls it only
   while some thread can step; it asks the machine about the threads it
   cares about ([Ksim.Machine.can_step], [first_runnable], the pc-level
   queries) and builds the whole runnable set only when its choice
   needs every candidate.  A policy value drives exactly one run: the
   schedule policies keep per-run state (run queue, pending switches,
   prologue progress) that only moves forward, so each run builds its
   own. *)
type policy = Ksim.Machine.t -> int option

let default_max_steps = 200_000

let verdict_name = function
  | Completed -> "completed"
  | Failed _ -> "failed"
  | Deadlock -> "deadlock"
  | Step_limit -> "step-limit"

(* Context switches of a trace: the scheduling analogue of the
   hypervisor's breakpoint-hit count — each switch is one trampoline
   interception in the paper's setup. *)
let context_switches (trace : Ksim.Machine.event list) =
  let rec go prev n = function
    | [] -> n
    | (e : Ksim.Machine.event) :: rest ->
      let tid = e.iid.Ksim.Access.Iid.tid in
      go (Some tid)
        (if prev = Some tid || prev = None then n else n + 1)
        rest
  in
  go None 0 trace

(* Run [m] under [policy] until completion, failure, deadlock or the step
   watchdog.

   The run's intermediate machines are unreachable once it ends, so its
   final machine is detached from the undo log that built it: an
   outcome kept for later (the reproducing run, a flip's outcome) then
   holds the state alone. *)
let run_loop ?(max_steps = default_max_steps) (m : Ksim.Machine.t)
    (policy : policy) : outcome =
  let stop verdict m acc steps =
    { verdict; trace = List.rev acc; final = Ksim.Machine.detach m; steps }
  in
  (* No thread will step again: flag leaks, then classify. *)
  let settle m acc steps =
    let m = Ksim.Machine.check_leaks m in
    match Ksim.Machine.failed m with
    | Some f -> stop (Failed f) m acc steps
    | None ->
      stop (if Ksim.Machine.all_done m then Completed else Deadlock) m acc steps
  in
  let rec loop m acc steps =
    if steps >= max_steps then stop Step_limit m acc steps
    else
      match Ksim.Machine.failed m with
      | Some f -> stop (Failed f) m acc steps
      | None -> (
        match Ksim.Machine.first_runnable m with
        | None -> settle m acc steps
        | Some _ -> (
          match policy m with
          | None -> settle m acc steps
          | Some tid -> (
            match Ksim.Engine.step m tid with
            | Ok (m, ev) -> loop m (ev :: acc) (steps + 1)
            | Error (Ksim.Machine.Blocked_on_lock _)
            | Error Ksim.Machine.Thread_not_runnable ->
              (* The policy picked a thread that cannot step; treat as
                 deadlock rather than spinning — policies are expected
                 to ask [Ksim.Machine.can_step]. *)
              stop Deadlock m acc steps
            | Error Ksim.Machine.Machine_failed -> (
              match Ksim.Machine.failed m with
              | Some f -> stop (Failed f) m acc steps
              | None -> assert false))))
  in
  loop m [] 0

(* A run reduced to what re-derives it.  The machine is deterministic,
   so the thread of every step determines the trace and the final
   machine; the steps are kept run-length encoded, [tid; count] pairs
   in one flat array, since a run switches threads far less often than
   it steps.  The verdict is kept as the run reported it (a flap
   rewrites only the verdict), and [failed_final] says whether the
   final machine holds a failure: a run ends either at its last step
   (watchdog, failure, refused step) or one loop turn later, when
   nothing can step and the leak check may flag the machine — only the
   latter adds a failure the last step did not, and a replay needs one
   more turn exactly then. *)
type recording = {
  tids : int array;
  rec_steps : int;
  rec_verdict : verdict;
  failed_final : bool;
}

let record (o : outcome) : recording =
  (* [acc] holds the finished pairs, reversed; [n] steps of [tid] are
     pending *)
  let rec pairs acc tid n = function
    | [] -> if n > 0 then n :: tid :: acc else acc
    | (e : Ksim.Machine.event) :: rest ->
      let t = e.iid.Ksim.Access.Iid.tid in
      if t = tid then pairs acc tid (n + 1) rest
      else pairs (if n > 0 then n :: tid :: acc else acc) t 1 rest
  in
  { tids = Array.of_list (List.rev (pairs [] (-1) 0 o.trace));
    rec_steps = o.steps;
    rec_verdict = o.verdict;
    failed_final = Ksim.Machine.failed o.final <> None }

(* Re-step a recording through the same loop, under a policy that
   replays the recorded threads in order.  Uninstrumented: the run was
   accounted when it executed. *)
let replay (m : Ksim.Machine.t) (r : recording) : outcome =
  let pair = ref 0 and used = ref 0 in
  let policy _ =
    if !pair >= Array.length r.tids then None
    else (
      let tid = r.tids.(!pair) in
      incr used;
      if !used = r.tids.(!pair + 1) then (
        pair := !pair + 2;
        used := 0);
      Some tid)
  in
  let max_steps = r.rec_steps + if r.failed_final then 1 else 0 in
  { (run_loop ~max_steps m policy) with verdict = r.rec_verdict }

(* One span per enforced schedule, plus the step-loop counters
   (instructions stepped, context switches — our breakpoint hits).  The
   counters are derived after the run from the outcome, so the disabled
   path costs one ref read. *)
let run ?max_steps (m : Ksim.Machine.t) (policy : policy) : outcome =
  Telemetry.Probe.span_begin ~cat:"hypervisor" "controller.run";
  let o = run_loop ?max_steps m policy in
  if Telemetry.Probe.installed () then (
    Telemetry.Probe.count "controller.runs";
    Telemetry.Probe.count ~by:o.steps "controller.instructions";
    Telemetry.Probe.count ~by:(context_switches o.trace)
      "controller.context_switches";
    Telemetry.Probe.count ("controller.verdict." ^ verdict_name o.verdict);
    Telemetry.Probe.span_end
      ~args:
        [ ("verdict", verdict_name o.verdict);
          ("steps", string_of_int o.steps) ]
      ());
  o

let pp_verdict ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Failed f -> Fmt.pf ppf "failed: %a" Ksim.Failure.pp f
  | Deadlock -> Fmt.string ppf "deadlock"
  | Step_limit -> Fmt.string ppf "step-limit"
