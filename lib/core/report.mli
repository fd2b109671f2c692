(** Human-readable diagnosis reports with instruction-level information
    (function names and line numbers of the modeled kernel source). *)

val pp_lifs_stats : Lifs.stats Fmt.t
val pp_ca_stats : Causality.stats Fmt.t

val locate : Diagnose.case -> Ksim.Access.Iid.t -> Ksim.Program.loc option
(** Source location of an instruction in the case's programs. *)

val pp_race_with_source : Diagnose.case -> Race.t Fmt.t

val pp : Diagnose.report Fmt.t
(** Fault-free reports render byte-identically to the pre-resilience
    format; resilience/degraded lines appear only when fault injection
    or the resilient executor actually did something. *)

val to_string : Diagnose.report -> string

val exit_code : Diagnose.report -> int
(** A diagnosis's exit code: [0] diagnosed, [1] cleanly failed to
    reproduce, [3] reproduced or not, but degraded — partial / low
    confidence.  ([2] is a usage, configuration or request error,
    raised by the callers.) *)

val worst_exit : int list -> int
(** The exit code over several diagnoses: the gravest of [codes] in
    the order [2 > 1 > 3 > 0]; [0] for the empty list. *)
