(** The execution-engine selector.

    AITIA's diagnosis cost is dominated by guest re-execution, so the
    machine comes in two engines: the persistent {e reference} semantics
    and the arena/undo-log {e compiled} engine (see {!Machine}).  This
    module is the single switch point — [--engine=reference|compiled] on
    the CLI becomes a {!kind} carried by [Hypervisor.Vm], and every
    layer that boots a machine goes through {!boot}.

    The [step]/[snapshot]/[restore]/[fingerprint] quartet is the engine
    interface the executor and snapshot cache consume, so they never
    pattern-match on machine internals. *)

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

val kind_of : Machine.t -> kind

(** {1 The engine interface} *)

val step : Machine.t -> int -> (Machine.t * Machine.event, Machine.step_error) result

type snapshot

val snapshot : Machine.t -> snapshot
(** Capture the machine's state for later restoration.  Freezes a
    compiled-engine machine so the snapshot may be restored concurrently
    from several domains. *)

val restore : snapshot -> Machine.t
(** The machine at the snapshotted state.  O(1); a compiled-engine
    restore defers the arena clone-and-rewind until the machine is
    actually stepped or inspected. *)

val snapshot_cost : ?prev:Machine.t -> Machine.t -> int
(** Estimated marginal bytes of retaining a snapshot, given the
    previously accounted snapshot of the same chain — the unit the
    snapshot cache's LRU budget counts in.  Reference-engine snapshots
    cost a flat per-step constant (persistent-map spine sharing);
    compiled-engine snapshots sharing an arena cost their undo-log
    delta, and a fresh arena is charged as a full clone. *)

val fingerprint : Machine.t -> string
