(** Flip-feasibility pre-analysis for Causality Analysis.

    Decides, on the failing trace and the flip plan alone, whether
    re-executing a flipped race can possibly {e complete}.  The Benign
    verdict of Causality Analysis covers every non-completing outcome,
    so a flip that provably cannot complete is Benign without a VM run:

    - {!Infeasible}: the plan cannot enforce the reversed order (it
      replays the failing sequence, or spawn-prerequisite hoisting kept
      the pair in program order); replaying reproduces the failure.
    - {!Preserves_failure}: the plan is a lock-consistent permutation
      and every reordered conflicting access pair is independent of the
      failure's control/data slice — a dynamic backward slice from the
      faulting event plus a forward taint walk over the reordered reads
      prove the faulting instruction sees the same operands.
    - {!Unknown}: no proof; the flip must execute. *)

type verdict =
  | Infeasible of string
  | Preserves_failure of string
  | Unknown of string

val prunable : verdict -> string option
(** The reason to record when the flip can be skipped; [None] for
    {!Unknown}. *)

type section = {
  cs_tid : int;
  cs_lock : string;
  cs_start : int;  (** trace index of the Lock event *)
  cs_stop : int option;  (** trace index of the Unlock event *)
}
(** A lock's critical section in the failing trace. *)

type ctx
(** The per-trace index: what the analysis needs of one failing trace,
    whatever the flip.  Built once per Causality Analysis and read by
    every flip of it.  {!context} precomputes the event array, the
    iid→index table, the critical sections and the spawning events.  The
    proof index is built on the first {!analyze} (so an analysis that
    never asks for a proof never pays for it): every event's address
    and value registers, defined register, location and lock operation
    interned as ints, each location's overlapping locations, and the
    dynamic backward slice from the faulting event, resolved to a flag
    per location.  Forcing it is not domain-safe, so
    one context is read by one domain. *)

val context : Ksim.Machine.event list -> ctx
(** [context trace] indexes the failing sequence (faulting event
    last). *)

val events : ctx -> Ksim.Machine.event array
(** The failing sequence, in trace order. *)

val index_of : ctx -> Ksim.Access.Iid.t -> int option
(** Trace index of the (first) event with this iid. *)

val sections : ctx -> section list
(** The trace's critical sections, closed ones in reverse order of their
    Unlock, then the ones never closed. *)

val spawns : ctx -> int array
(** Trace indices of the events that spawn a thread, ascending. *)

type flip = {
  lo : int;
  window : int array;
      (** the plan puts trace index [window.(k)] at position [lo + k];
          every other position keeps its own trace index *)
  pending : (int * Ksim.Access.Iid.t) option;
      (** [Some (k, iid)]: [iid], which the trace never executed, is
          planned just before position [k] *)
}
(** A flip plan over the trace's indices: a permutation of the window
    [[lo, lo + length window)], the identity elsewhere. *)

val analyze :
  ctx ->
  flip ->
  first:Ksim.Access.t ->
  second:Ksim.Access.t ->
  verdict
(** The verdict for a flip plan on the context's trace;
    [first]/[second] are the racing endpoints being reversed.  A plan
    that inserts a pending event, or is not a permutation of the trace,
    is {!Unknown}.  Work per call is linear and allocates only
    window-sized arrays: the displaced window is read off the
    permutation, the reordered pairs are found through each location's
    overlapping locations, and the forward taint walk starts at the
    window's low end.  That start is sound because every event before
    the window runs in the same order, on the same values, in the
    flipped run, so only the window and what follows it can read a
    changed value. *)

val nesting_depth : Ksim.Machine.event list -> Ksim.Access.Iid.t -> int
(** Critical-section nesting of an event: locks its thread holds when it
    executes (its own acquisition counts). *)

(** {2 Register use/def helpers}

    Shared with the failure-relevance closure ({!Absdom}). *)

module SS : Set.S with type elt = string

val expr_regs : SS.t -> Ksim.Instr.expr -> SS.t
val addr_regs : SS.t -> Ksim.Instr.addr_expr -> SS.t

val pp : verdict Fmt.t
