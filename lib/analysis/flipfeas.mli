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

type ctx
(** What the analysis needs of one failing trace, whatever the flip: the
    event array, the iid→index table and the dynamic backward slice
    from the faulting event.  Immutable once built, so it may be shared
    by every flip of an analysis and read concurrently. *)

val context : Ksim.Machine.event list -> ctx
(** [context trace] indexes and slices the failing sequence (faulting
    event last). *)

val events : ctx -> Ksim.Machine.event array
(** The failing sequence, in trace order. *)

val index_of : ctx -> Ksim.Access.Iid.t -> int option
(** Trace index of the (first) event with this iid. *)

val analyze :
  ctx ->
  plan:Ksim.Access.Iid.t list ->
  first:Ksim.Access.t ->
  second:Ksim.Access.t ->
  verdict
(** [plan] is the total order the flip would enforce on the context's
    trace; [first]/[second] are the racing endpoints being reversed.
    Only plan-dependent work is done per call. *)

val nesting_depth : Ksim.Machine.event list -> Ksim.Access.Iid.t -> int
(** Critical-section nesting of an event: locks its thread holds when it
    executes (its own acquisition counts). *)

(** {2 Register use/def helpers}

    Shared with the failure-relevance closure ({!Absdom}). *)

module SS : Set.S with type elt = string

val expr_regs : SS.t -> Ksim.Instr.expr -> SS.t
val addr_regs : SS.t -> Ksim.Instr.addr_expr -> SS.t
val uses : Ksim.Instr.t -> SS.t
val defines : Ksim.Instr.t -> string option

val pp : verdict Fmt.t
