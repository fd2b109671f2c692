(** Retry/quorum policy and accounting for the resilient executor.

    The paper's harness treats bug reproduction as inherently flaky:
    guests hang, breakpoints miss, and repeated reproductions of the
    same schedule disagree.  The executor reacts per fault class —
    detectable transient faults are retried with exponential backoff
    (modeled seconds, never host sleeps), undetectable outcome flaps
    are masked by quorum re-execution (best-of-N majority vote), and
    when the budget is exhausted the decision is accepted at reduced
    confidence instead of failing the whole diagnosis. *)

type policy = {
  max_retries : int;
      (** tainted attempts re-run per decision; 0 disables retrying *)
  quorum : int;
      (** independent clean runs consulted per decision when outcome
          flaps are possible (use an odd value); 1 disables quorum *)
  backoff_base : float;
      (** modeled seconds before retry [k] is [base * 2^k] *)
}

val default_policy : policy
(** 3 retries, quorum of 3, 0.05 s backoff base. *)

val policy_for : faulted:bool -> int option -> policy option
(** The policy a diagnosis runs under, given whether faults are
    injected and the requested retry budget: [None] when neither is
    set; otherwise {!default_policy} with that budget, and with quorum
    1 when the budget is 0 (no retrying, no confirmation runs). *)

type stats = {
  mutable retries : int;          (** tainted attempts re-run *)
  mutable gave_up : int;          (** decisions whose budget exhausted *)
  mutable quorum_runs : int;      (** extra confirmation runs *)
  mutable quorum_disagreements : int;
      (** decisions whose clean runs did not all agree *)
  mutable low_confidence : int;   (** decisions accepted below 1.0 *)
  mutable backoff_simulated : float;  (** modeled backoff seconds *)
}

type t = {
  policy : policy;
  stats : stats;
}

val create : ?policy:policy -> unit -> t

val degraded : t -> bool
(** Some decision was accepted with an exhausted budget or below full
    agreement: the diagnosis (chain, verdicts) must be treated as
    partial. *)

val pp_stats : t Fmt.t
