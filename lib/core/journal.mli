(** Resumable diagnosis journal.

    [Diagnose] checkpoints per-slice and per-flip progress into a JSON
    file as it works; an interrupted diagnosis restarted with the same
    journal replays the recorded results instead of re-executing them —
    finished slices are skipped entirely, the reproducing schedule is
    re-run once (to rebuild the machine state the flips permute), and
    journaled flip verdicts feed Causality Analysis through its
    [replay] hook.  The final report is identical to an uninterrupted
    run; only the re-executed instruction count drops.

    The file is a write-ahead log.  The first write of every [t] —
    created or loaded — is a snapshot: the whole journal as one JSON
    document [{"version": 1, "cases": …}], written to a temp file and
    renamed over the path, so it replaces whatever the file held.  Each
    later checkpoint appends one compact JSON record on its own line
    ({!set_case}, {!add_flip}, {!complete_case}); race endpoint data is
    written once per slice, by the record that opens the slice.  A kill
    mid-snapshot leaves the previous file; a kill mid-append leaves a
    record cut off at the end of the file, which {!load} drops (the
    torn-tail rule), so a kill always leaves the last complete
    checkpoint.  A journal written before records existed is a
    snapshot with no records and loads unchanged; binaries from before
    records existed cannot read a journal that holds records. *)

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
    is written until the first checkpoint, which replaces any file at
    the path. *)

val load : string -> (t, string) result
(** Load an existing journal: the snapshot with its records folded in,
    in order.  A missing file yields a fresh journal (resuming from
    nothing is starting over); a malformed snapshot or any malformed
    record other than a last one cut off by the end of the file is an
    [Error] with a parse message. *)

val open_ : resume:bool -> string option -> (t option, string) result
(** The journal a diagnosis runs with: {!load} the file when [resume],
    else {!create} it; no journal for [None], an [Error] for [None]
    with [resume] and for a path whose directory does not exist. *)

val path : t -> string

val save : t -> unit
(** Write a snapshot of the whole journal; later checkpoints append to
    it. *)

val find_case : t -> string -> case_entry option

(** Checkpoints: each updates the journal and writes it — a snapshot if
    this [t] has written none yet, else one appended record. *)

val set_case : t -> string -> case_entry -> unit
(** Replace (or append) the entry for a case. *)

val add_flip : t -> string -> flip -> Causality.stats -> unit
(** Add a decided flip to the case's reproducing slice (its last slice,
    which must be [Reproduced]) and set that slice's CA counters
    ([schedules], [simulated], [executed_instrs]) to the given
    progress. *)

val complete_case : t -> string -> flip list -> Causality.stats -> unit
(** Causality Analysis on the case's reproducing slice finished:
    replace its flips with the authoritative list, set its CA counters
    and mark the slice and the case complete. *)
