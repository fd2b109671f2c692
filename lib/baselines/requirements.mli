(** Scoring the three requirements of §2 — comprehensive,
    pattern-agnostic, concise — for AITIA and the implemented
    comparators (Table 1 and the §5.3 capability comparison). *)

type verdict = Satisfied | Conditional | Unsatisfied

val pp_verdict : verdict Fmt.t
val glyph : verdict -> string

type score = {
  tool : string;
  comprehensive : verdict;
  pattern_agnostic : verdict;
  concise : verdict;
}

type evidence = {
  report : Aitia.Diagnose.report;
  failing : Hypervisor.Controller.outcome;
  passing : Hypervisor.Controller.outcome list;
}

val chain_of : evidence -> Aitia.Chain.t

val diagnose :
  (on_run:
     (slice:int ->
     Hypervisor.Schedule.preemption ->
     Hypervisor.Controller.outcome ->
     unit) ->
  Aitia.Diagnose.report) ->
  Aitia.Diagnose.report * evidence option
(** [diagnose run] runs a diagnosis, [run ~on_run] (pass [on_run] on to
    {!Aitia.Diagnose.diagnose}), and returns its report with the
    evidence when it reproduced: the baselines get the same failing
    execution and the passing runs LIFS explored on the reproducing
    slice. *)

val production_runs :
  ?count:int -> Ksim.Program.group -> Hypervisor.Controller.outcome list
(** Extra passing runs under a random scheduler — the production
    population cooperative bug localization draws statistics from.
    Threads named ["init"] are treated as the setup prologue. *)

type capability = {
  cap_aitia : bool;
  cap_kairux : bool;
  cap_cbl : bool;
  cap_muvi : bool;
}

val capability : single_variable:bool -> evidence -> capability
(** Did each tool fully explain this bug? *)

val table1 : capability list -> score list
val pp_score : score Fmt.t
