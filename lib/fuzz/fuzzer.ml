(* A miniature Syzkaller: randomized concurrent execution of a syscall
   workload with ftrace-style tracing and crash collection (§5.2's
   "cooperation with an automated bug-finding system").

   The fuzzer knows nothing about schedules or races; it runs the
   workload under a seeded random scheduler, watching for failures.  On
   a crash it emits exactly what AITIA consumes: a timestamped execution
   history and the crash report. *)

type finding = {
  seed : int;
  runs_until_crash : int;
  failure : Ksim.Failure.t;
  history : Trace.History.t;
  outcome : Hypervisor.Controller.outcome;
}

type stats = {
  executed : int;
  crashed : bool;
}

(* A random scheduler: at every step pick any runnable thread.  This is
   the "diversify interleavings" strategy of stress-style kernel
   fuzzers. *)
let random_policy (rng : Rng.t) : Hypervisor.Controller.policy =
 fun m ->
  match Ksim.Machine.runnable m with
  | [] -> None
  | xs -> Some (Rng.pick rng xs)

(* Reconstruct an ftrace history from an executed trace: syscall
   enter/exit and kernel-thread invocation events with timestamps
   derived from the machine clock. *)
let history_of_run ~(group : Ksim.Program.group) ~subsystem
    (o : Hypervisor.Controller.outcome) : Trace.History.t =
  let tick i = 1.0 +. (0.001 *. float_of_int i) in
  let final = o.final in
  let events = ref [] in
  let started : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let spec_of tid =
    List.find_opt
      (fun (s : Ksim.Program.thread_spec) ->
        String.equal s.spec_name (Ksim.Machine.thread_base final tid))
      group.Ksim.Program.threads
  in
  List.iteri
    (fun i (e : Ksim.Machine.event) ->
      let tid = e.iid.Ksim.Access.Iid.tid in
      if not (Hashtbl.mem started tid) then (
        Hashtbl.add started tid ();
        match e.context with
        | Ksim.Program.Syscall { call; _ } ->
          let resources =
            match spec_of tid with Some s -> s.resources | None -> []
          in
          events :=
            { Trace.Event.time = tick i;
              kind =
                Trace.Event.Syscall_enter
                  { call; thread = Ksim.Machine.thread_base final tid;
                    resources } }
            :: !events
        | Ksim.Program.Kworker | Ksim.Program.Rcu_softirq
        | Ksim.Program.Timer_softirq | Ksim.Program.Hardirq ->
          events :=
            { Trace.Event.time = tick i;
              kind =
                Trace.Event.Kthread_invoked
                  { entry = Ksim.Machine.thread_base final tid;
                    source = "syscall";
                    context = e.context } }
            :: !events))
    o.trace;
  (* Close each episode right after the thread's last executed event —
     a thread that finished before another started must not look
     concurrent with it. *)
  let last_index : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i (e : Ksim.Machine.event) ->
      Hashtbl.replace last_index e.iid.Ksim.Access.Iid.tid i)
    o.trace;
  let n = List.length o.trace in
  Hashtbl.iter
    (fun tid () ->
      let last = Option.value ~default:n (Hashtbl.find_opt last_index tid) in
      let stop = tick last +. 0.0005 in
      match Ksim.Machine.thread_context final tid with
      | Ksim.Program.Syscall { call; _ } ->
        events :=
          { Trace.Event.time = stop;
            kind =
              Trace.Event.Syscall_exit
                { call; thread = Ksim.Machine.thread_base final tid } }
          :: !events
      | _ ->
        events :=
          { Trace.Event.time = stop;
            kind =
              Trace.Event.Kthread_done
                { entry = Ksim.Machine.thread_base final tid } }
          :: !events)
    started;
  let failure =
    match o.verdict with
    | Hypervisor.Controller.Failed f -> Some f
    | _ -> None
  in
  let crash =
    match failure with
    | Some f ->
      Trace.Crash.of_failure ~subsystem ~report_time:(tick (n + 100)) f
    | None ->
      { Trace.Crash.symptom = "none"; location = None; subsystem;
        report_time = tick (n + 100) }
  in
  Trace.History.make ~events:!events ~crash

(* Fuzz [group] for up to [max_runs] random schedules; return the first
   crash found, with its history. *)
let run ?(max_runs = 2_000) ?(max_steps = 50_000) ?(prologue = [])
    ~(seed : int) ~subsystem (group : Ksim.Program.group) :
    (finding, stats) result =
  let rng = Rng.create seed in
  let rec go i =
    if i >= max_runs then Error { executed = i; crashed = false }
    else
      let run_rng = Rng.split rng in
      let m = Ksim.Engine.boot Ksim.Engine.default group in
      let policy =
        Hypervisor.Schedule.with_prologue prologue (random_policy run_rng)
      in
      let o = Hypervisor.Controller.run ~max_steps m policy in
      match o.verdict with
      | Hypervisor.Controller.Failed failure ->
        Ok
          { seed; runs_until_crash = i + 1; failure;
            history = history_of_run ~group ~subsystem o; outcome = o }
      | _ -> go (i + 1)
  in
  go 0
