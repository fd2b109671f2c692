(** The execution-engine selector.

    AITIA's diagnosis cost is dominated by guest re-execution, so the
    machine comes in two engines: the persistent {e reference} semantics
    and the {e compiled} engine, whose linear machines step one arena in
    place (see {!Machine}).  This module is the single switch point —
    [--engine=reference|compiled] on the CLI becomes a {!kind} carried
    by [Hypervisor.Vm], and every layer that boots a machine goes
    through {!boot}.  Past the boot a machine of either engine answers
    every {!Machine} query identically, so no other layer
    pattern-matches on the engine; every layer steps only the newest
    machine, which is all a compiled machine allows. *)

type kind = Reference | Compiled

val default : kind
(** {!Compiled} — parity with the reference engine is enforced by the
    differential oracle, so the fast engine is the default. *)

val names : (string * kind) list
(** The user-facing engine names, read by the CLI's [--engine] and the
    batch manifest's ["engine"] field. *)

val to_string : kind -> string
val of_string : string -> (kind, string) result

val boot : kind -> Program.group -> Machine.t
(** A fresh machine on the chosen engine. *)

val step : Machine.t -> int -> (Machine.t * Machine.event, Machine.step_error) result
(** {!Machine.step}. *)
