(** Resumable diagnosis journal.

    [Diagnose] checkpoints per-slice and per-flip progress into a JSON
    file as it works; an interrupted diagnosis restarted with the same
    journal replays the recorded results instead of re-executing them —
    finished slices are skipped entirely, the reproducing schedule is
    re-run once (to rebuild the machine state the flips permute), and
    journaled flip verdicts feed Causality Analysis through its
    [replay] hook.  The final report is identical to an uninterrupted
    run; only the re-executed instruction count drops.

    Saves are atomic (write-to-temp then rename), so a kill mid-save
    leaves the previous checkpoint intact. *)

(** The journaled verdict of one Causality flip.  Races are stored by
    {!Race.key} next to the slice's full race list, which carries the
    endpoint data. *)
type flip = {
  f_race : string;  (** {!Race.key} of the flipped race *)
  f_verdict : [ `Root_cause | `Benign ];
  f_pruned : string option;
  f_enforced : bool;
  f_disappeared : string list;  (** {!Race.key}s absent from the flip run *)
  f_confidence : float;
}

(** One attempted slice of a case, in attempt order. *)
type slice =
  | No_repro of {
      nr_threads : string list;  (** thread names of the slice *)
      nr_lifs : Lifs.stats;
    }
  | Reproduced of {
      r_threads : string list;
      r_schedule : Hypervisor.Schedule.preemption;
          (** the failure-reproducing schedule found by LIFS *)
      r_lifs : Lifs.stats;
      r_races : Race.t list;  (** full test set, endpoint data included *)
      r_flips : flip list;    (** journaled so far, in testing order *)
      r_ca_schedules : int;
      r_ca_simulated : float;
      r_ca_instrs : int;
      r_ca_complete : bool;   (** every flip of [r_races] is journaled *)
    }

type case_entry = {
  slices : slice list;
  complete : bool;  (** the case's diagnosis finished *)
}

type t

val create : string -> t
(** A fresh, empty journal that will save to the given path.  Nothing
    is written until the first {!save} / {!set_case}. *)

val load : string -> (t, string) result
(** Load an existing journal; a missing file yields a fresh journal
    (resuming from nothing is starting over), a malformed one is an
    [Error] with a parse message. *)

val open_ : resume:bool -> string option -> (t option, string) result
(** The journal a diagnosis runs with: {!load} the file when [resume],
    else {!create} it; no journal for [None], an [Error] for [None]
    with [resume] and for a path whose directory does not exist. *)

val path : t -> string
val save : t -> unit
val find_case : t -> string -> case_entry option

val set_case : t -> string -> case_entry -> unit
(** Replace (or append) the entry for a case and save immediately. *)
