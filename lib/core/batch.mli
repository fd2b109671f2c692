(** Batch diagnosis: a manifest of diagnosis requests executed with
    bounded concurrency and consolidated into one JSON report.

    A manifest is a JSON array of request objects (or an object with a
    ["requests"] array).  Each request names a corpus bug and may
    override the per-diagnosis knobs the CLI exposes; requests get
    isolated journals, so an interrupted batch resumes per-request just
    like [aitia diagnose --journal --resume].

    Requests are independent by construction — one guest, one journal,
    one fault stream each — so the batch layer fans them out across a
    {!Hypervisor.Pool} without any cross-request merging concerns; the
    consolidated report lists outcomes in manifest order regardless of
    completion order. *)

type request = {
  rq_id : string;            (** unique within the manifest *)
  rq_bug : string;           (** corpus bug id, resolved by the caller *)
  rq_jobs : int option;      (** intra-diagnosis workers (default 1) *)
  rq_prune : Causality.prune option;
  rq_order : Causality.order option;
  rq_snapshot_cache : bool;
  rq_snapshot_budget : int option;
  rq_fault_spec : string option;  (** {!Hypervisor.Faults.spec_of_string} *)
  rq_fault_seed : int;            (** default 1 *)
  rq_max_retries : int option;
  rq_step_timeout : int option;
  rq_journal : string option;     (** overrides the [journal_dir] path *)
  rq_engine : Ksim.Engine.kind option;
      (** machine implementation for this request's VMs *)
}

val manifest_of_string : string -> (request list, string) result
(** Parse a manifest document.  Errors on malformed JSON, a missing /
    mistyped field, an unknown field name, or duplicate request ids —
    the whole manifest is rejected, nothing runs. *)

val manifest_of_file : string -> (request list, string) result

(** The per-request result, in the exit-code vocabulary of the CLI:
    [0] diagnosed, [1] clean non-reproduction, [2] request error
    (unknown bug, bad fault spec, unreadable journal, crash), [3]
    degraded diagnosis. *)
type outcome = {
  o_id : string;
  o_bug : string;
  o_exit : int;
  o_reproduced : bool;
  o_degraded : bool;
  o_chain : string option;   (** rendered causality chain *)
  o_elapsed : float;         (** host seconds for this request *)
  o_error : string option;   (** present exactly when [o_exit = 2] *)
}

type summary = {
  outcomes : outcome list;  (** in manifest order *)
  batch_exit : int;
      (** [2] if any request erred, else [1] if any clean
          non-reproduction, else [3] if any degraded, else [0] *)
}

val run :
  ?jobs:int ->
  ?journal_dir:string ->
  ?resume:bool ->
  resolve:(string -> (Diagnose.case * int option) option) ->
  request list ->
  summary
(** Execute the manifest.  [jobs] (default 1) bounds how many requests
    run concurrently; each request's own diagnosis uses [rq_jobs]
    workers (default 1), so batch-level and intra-diagnosis parallelism
    compose.  [resolve] maps a bug id to its case and default
    interleaving bound ([None] → request error, exit 2).
    [journal_dir] gives every request an isolated journal at
    [<dir>/<id>.journal.json].  A missing [dir] is created (one level)
    before any request runs; if that fails, each request journaling
    there fails with exit 2.  [resume] loads those journals instead of
    truncating them.  A request failure — bad configuration or an
    escaped exception — is confined to its outcome; the rest of the
    batch still runs. *)

val summary_to_json : summary -> string
(** The consolidated report: [{"exit": N, "requests": [...]}] with one
    object per outcome in manifest order. *)
