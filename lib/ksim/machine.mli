(** The kernel machine: a deterministic, sequentially consistent
    interpreter over a program group.

    Two engines implement one observable semantics.  The {e reference}
    engine ({!create}) is a persistent value: [step] returns a new
    machine, so a snapshot is just keeping the old value — this is what
    the AITIA hypervisor's "revert the memory contents of the
    reproducer" becomes on this substrate.  The {e compiled} engine
    ({!create_compiled}) lowers each program once into a flat array of
    integer opcodes with pre-resolved operands and executes in a mutable
    arena with an undo log, so the hot step is branch-light and nearly
    allocation-free while snapshots are O(delta) undo-log marks.  Both
    engines answer every query below identically — {!fingerprint}
    parity is enforced by the differential oracle in test/test_engine.ml.
    A scheduler above (see {!Hypervisor.Controller}) decides which
    thread steps next; the machine has no policy. *)

exception Model_error of string
(** A malformed bug model (unset register, unlock of a lock not held,
    list op on a non-list value) — a bug in the model, not a kernel
    failure. *)

type t

(** What one executed instruction did. *)
type event = {
  iid : Access.Iid.t;
  instr : Instr.t;
  src : Program.loc;
  access : Access.t option;       (** the shared-memory access, if any *)
  spawned : (int * string) list;  (** (tid, entry) of new kthreads *)
  lock_op : (string * [ `Acquire | `Release ]) option;
  context : Program.context;
  thread_name : string;
}

type step_error =
  | Blocked_on_lock of string
  | Thread_not_runnable
  | Machine_failed

val create : Program.group -> t
(** A fresh machine on the reference (persistent) engine: top-level
    threads ready, globals initialized, heap empty. *)

val create_compiled : Program.group -> t
(** A fresh machine on the compiled engine — observably identical to
    {!create}, but stepping mutates an arena behind an undo log.
    Programs are compiled once per group (a small process-wide cache
    keyed by the group's physical identity). *)

(** {1 Inspection} *)

val failed : t -> Failure.t option
val thread_ids : t -> int list
val has_thread : t -> int -> bool

val has_started : t -> int -> bool
(** Has [tid] executed at least one instruction? *)

val occurrences : t -> int -> string -> int
(** How many times thread [tid] has executed instruction [label]. *)

(** {2 Program positions}

    A thread's program is fixed, so a label names one pc of the thread
    for the whole run.  A scheduler that waits for an instruction
    resolves its label once and then compares ints at every step. *)

val pc_of_label : t -> int -> string -> int option
(** The pc of [label] in thread [tid]'s program; [None] if the program
    has no such label. *)

val next_pc : t -> int -> int
(** The pc [tid] executes next, or [-1] once it is done: the position
    of {!next_label}. *)

val occurrences_at : t -> int -> int -> int
(** [occurrences_at m tid pc] is [occurrences m tid label] for the
    label at [pc], a valid pc of [tid]'s program. *)

val thread_base : t -> int -> string
(** Stable identity across runs of the same group: the thread-spec name
    for top-level threads, the entry name for spawned kthreads. *)

val thread_context : t -> int -> Program.context
val thread_parent : t -> int -> int option

val next_label : t -> int -> string option
val is_done : t -> int -> bool

val blocked_on : t -> int -> string option
(** The lock [tid] would block on if stepped now, if any.  Kernel
    spinlocks do not re-enter: holding the lock yourself blocks too. *)

val lock_holder : t -> string -> int option

val runnable : t -> int list
(** Threads that can step: not done, not lock-blocked, machine healthy. *)

val can_step : t -> int -> bool
(** [can_step m tid] holds exactly when [tid] is in [runnable m];
    builds no list. *)

val first_runnable : t -> int option
(** The head of [runnable m]; builds no list. *)

val all_done : t -> bool
val reg : t -> int -> string -> Value.t option
val mem_read : t -> Addr.t -> Value.t
(** Unwritten memory reads as zero. *)

(** {1 Stepping} *)

val step : t -> int -> (t * event, step_error) result
(** Execute one instruction of [tid].  On failure manifestation the new
    machine records the failure and the faulting event (including the
    attempted access, when its base pointer is known) is still
    returned. *)

val check_leaks : t -> t
(** Once every thread finished: flag still-live [leak_check] objects as
    a {!Failure.Memory_leak}. *)

val fingerprint : t -> string
(** Canonical hex digest of the complete machine state (threads,
    registers, memory, heap, locks, failure, clock).  Two structurally
    equal machines fingerprint identically regardless of the history
    that built their persistent maps {e and regardless of engine}: the
    compiled engine materializes the persistent representation and
    digests through the same renderer.  Used by test/test_engine.ml for
    reference-vs-compiled lockstep parity. *)

val detach : t -> t
(** The same state without the history that produced it.  On the
    compiled engine, a clone on a fresh arena with an empty undo log,
    so keeping the result alive does not keep the log alive; every
    other machine stays valid.  The identity on the reference engine.
    O(state). *)

(** {1 Instrumentation tables}

    Per-PC classification precomputed by the compiled engine; exposed so
    the parity tests can assert the static tables against the reference
    engine's dynamic behaviour. *)

module Flags : sig
  val read : int
  val write : int
  val update : int
  val spawn : int
  val lock : int
  val control : int
  val check : int

  val accesses : int
  (** [read lor write lor update] — any bit implying the step may record
      a shared-memory access. *)
end

val instr_flags : Program.t -> int -> int
(** The {!Flags} bitset of the instruction at a pc. *)

val instr_globals : Program.t -> int -> string list
(** The global variables the instruction at a pc may address directly —
    the static watchpoint set.  Exact for globals: heap accesses never
    resolve to a global address. *)
