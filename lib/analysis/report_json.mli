(** JSON serialization of the static analysis, for `aitia analyze` and
    trajectory tracking, built on the {!Telemetry.Json} combinators. *)

val to_string : Candidates.result -> string
(** The full report: threads, serial prologue, headline stats, every
    site with its locksets, every classified pair. *)

val lint_to_string : Lockorder.report -> string
(** The lock-order lint report: acquisition edges, cycles with witness
    paths and MHP schedulability, guarded-publication inversions with
    their two-node witness cycles. *)

val redundant_json : Invariants.redundant -> string
(** One invariant-proven redundant critical section, with its witness
    segment (the Lock/Unlock labels delimiting the inert body). *)

val invariants_to_string : Absdom.t -> Invariants.redundant list -> string
(** The error-invariant section of the analyze report: the
    failure-relevance closure and the redundant critical sections it
    proves. *)
