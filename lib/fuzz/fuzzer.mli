(** A miniature Syzkaller: randomized concurrent execution of a syscall
    workload with ftrace-style tracing and crash collection — the
    "cooperation with an automated bug-finding system" workflow of
    §5.2.  On a crash it emits exactly what AITIA consumes: a
    timestamped execution history and a crash report. *)

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

val random_policy : Rng.t -> Hypervisor.Controller.policy
(** Pick any runnable thread at every step. *)

val history_of_run :
  group:Ksim.Program.group -> subsystem:string ->
  Hypervisor.Controller.outcome -> Trace.History.t
(** Reconstruct an ftrace history (syscall enter/exit, kthread
    invocations, crash report) from an executed trace. *)

val run :
  ?max_runs:int -> ?max_steps:int -> ?prologue:int list ->
  seed:int -> subsystem:string -> Ksim.Program.group ->
  (finding, stats) result
(** Fuzz for up to [max_runs] random schedules; return the first crash
    with its history, or the campaign statistics. *)
