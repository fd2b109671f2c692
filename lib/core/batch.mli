(** Diagnosis requests, and batches of them executed with bounded
    concurrency and consolidated into one JSON report.

    A {!request} is the one description of a diagnosis: a corpus bug
    plus every per-diagnosis knob.  [aitia diagnose], [stats], [chain]
    and [compare] build one from their flags, a batch manifest holds a
    list of them, and both run it with {!diagnose}.

    A manifest is a JSON array of request objects (or an object with a
    ["requests"] array).  Requests get isolated journals, so an
    interrupted batch resumes per-request just like
    [aitia diagnose --journal --resume].

    Requests are independent by construction — one guest, one journal,
    one fault stream each — so the batch layer fans them out across a
    {!Hypervisor.Pool} without any cross-request merging concerns; the
    consolidated report lists outcomes in manifest order regardless of
    completion order. *)

type request = {
  rq_id : string;            (** unique within the manifest *)
  rq_bug : string;           (** corpus bug id, resolved by the caller *)
  rq_prune : Causality.prune option;
  rq_order : Lifs.order option;
      (** the LIFS search order; Causality Analysis has only one *)
  rq_fault_spec : string option;  (** {!Hypervisor.Faults.spec_of_string} *)
  rq_fault_seed : int;            (** default 1 *)
  rq_max_retries : int option;
  rq_step_timeout : int option;
  rq_journal : string option;     (** overrides the [journal_dir] path *)
  rq_engine : Ksim.Engine.kind option;
      (** machine implementation for this request's VMs *)
}

val default_request : request
(** No knob set, every diagnosis default ([rq_fault_seed] 1); empty
    [rq_id] and [rq_bug]. *)

val manifest_of_string : string -> (request list, string) result
(** Parse a manifest document.  Errors on malformed JSON, a missing /
    mistyped field, an unknown field name (named with its request), or
    duplicate request ids — the whole manifest is rejected, nothing
    runs. *)

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
  batch_exit : int;  (** {!Report.worst_exit} of the outcomes *)
}

val diagnose :
  ?journal:Journal.t ->
  ?on_run:
    (slice:int ->
    Hypervisor.Schedule.preemption ->
    Hypervisor.Controller.outcome ->
    unit) ->
  resolve:(string -> (Diagnose.case * int option) option) ->
  request ->
  (Diagnose.report, string) result
(** Run one request, checkpointing into [journal] (opened by the
    caller; [rq_journal] is not read).  [on_run] is passed to
    {!Diagnose.diagnose}.  [Error] for an unknown bug or a malformed
    fault spec; exceptions propagate. *)

val run :
  ?jobs:int ->
  ?journal_dir:string ->
  ?resume:bool ->
  resolve:(string -> (Diagnose.case * int option) option) ->
  request list ->
  summary
(** Execute the manifest.  [jobs] (default 1) bounds how many requests
    run concurrently, each diagnosed sequentially on its own VMs; this
    is the one place diagnoses run in parallel.  [resolve] maps a bug
    id to its case and default interleaving bound ([None] → request
    error, exit 2).
    [journal_dir] gives every request an isolated journal at
    [<dir>/<id>.journal.json].  A missing [dir] is created (one level)
    before any request runs; if that fails, each request journaling
    there fails with exit 2.  [resume] loads those journals instead of
    truncating them; a request with neither a [journal] field nor a
    [journal_dir] then fails with exit 2.  A request failure — bad
    configuration or an escaped exception — is confined to its outcome;
    the rest of the batch still runs. *)

val summary_to_json : summary -> string
(** The consolidated report: [{"exit": N, "requests": [...]}] with one
    object per outcome in manifest order. *)
