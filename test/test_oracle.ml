(* Brute-force differential oracle for LIFS.

   For small generated programs the oracle exhaustively enumerates
   EVERY interleaving (every runnable-thread choice at every step) and
   records which of them fail.  LIFS must find a failure iff the oracle
   does, its failing trace must be one of the oracle's failing
   interleavings, and its reported race set must equal an independent
   computation over that
   same interleaving.

   The fig* corpus bugs are run through a fingerprint-memoized variant
   of the oracle (complete for failure reachability, tractable on the
   larger state spaces) and cross-checked the same way.

   QCHECK_SEED fixes the generator seed; QCHECK_LONG multiplies the
   iteration count (both read by qcheck-alcotest).  Failing cases are
   appended to oracle_counterexamples.txt for CI artifact upload. *)

module Iid = Ksim.Access.Iid
module Schedule = Hypervisor.Schedule
module Lifs = Aitia.Lifs
module Race = Aitia.Race

let checkb = Alcotest.(check bool)

(* --- the oracle ----------------------------------------------------------- *)

let digest_of_iids iids =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map Iid.to_string iids)))

type oracle = {
  mutable paths : int;        (** terminal interleavings enumerated *)
  mutable capped : bool;      (** hit the path budget: result partial *)
  failing : (string, string list) Hashtbl.t;
      (** digest of the failing trace's iid sequence -> sorted race keys *)
  failures : (string, unit) Hashtbl.t;  (** distinct failure renderings *)
}

let race_keys trace =
  List.sort_uniq String.compare (List.map Race.key (Race.of_trace trace))

let record_failure o trace_rev f =
  let trace = List.rev trace_rev in
  let iids = List.map (fun (e : Ksim.Machine.event) -> e.iid) trace in
  Hashtbl.replace o.failing (digest_of_iids iids) (race_keys trace);
  Hashtbl.replace o.failures (Ksim.Failure.to_string f) ()

(* Exhaustive enumeration: one DFS branch per runnable thread per step.
   Terminal nodes are failures (the machine faulted), completions
   (leak-checked) and deadlocks.  Matches the controller's semantics
   exactly — the controller is one path of this tree.  Runs on the
   reference engine by default, so the oracle's ground truth is the
   reference semantics while LIFS under test runs the session default;
   pass [~engine] to brute-force the other engine instead. *)
let enumerate ?(max_paths = 60_000) ?(max_depth = 200)
    ?(engine = Ksim.Engine.Reference) group =
  let o =
    { paths = 0; capped = false; failing = Hashtbl.create 64;
      failures = Hashtbl.create 8 }
  in
  let rec go m trace_rev depth =
    if o.capped then ()
    else if depth > max_depth then o.capped <- true
    else
      match Ksim.Machine.runnable m with
      | [] ->
        o.paths <- o.paths + 1;
        if o.paths > max_paths then o.capped <- true
        else if Ksim.Machine.all_done m then (
          match Ksim.Machine.failed (Ksim.Machine.check_leaks m) with
          | Some f -> record_failure o trace_rev f
          | None -> ())
      | tids ->
        List.iter
          (fun tid ->
            if not o.capped then
              match Ksim.Engine.step m tid with
              | Error _ -> ()
              | Ok (m', ev) -> (
                match Ksim.Machine.failed m' with
                | Some f ->
                  o.paths <- o.paths + 1;
                  if o.paths > max_paths then o.capped <- true
                  else record_failure o (ev :: trace_rev) f
                | None -> go m' (ev :: trace_rev) (depth + 1)))
          tids
  in
  go (Ksim.Engine.boot engine group) [] 0;
  o

(* Memoized variant: complete for WHICH failures are reachable (every
   reachable state is expanded exactly once), but does not keep the
   failing traces — used for the corpus bugs whose interleaving count
   is beyond full enumeration. *)
let enumerate_memo ?(max_states = 300_000) ?(engine = Ksim.Engine.Reference)
    group =
  let o =
    { paths = 0; capped = false; failing = Hashtbl.create 1;
      failures = Hashtbl.create 8 }
  in
  let seen = Hashtbl.create 4096 in
  let rec go m =
    if o.capped then ()
    else
      let fp = Ksim.Machine.fingerprint m in
      if Hashtbl.mem seen fp then ()
      else begin
        Hashtbl.replace seen fp ();
        if Hashtbl.length seen > max_states then o.capped <- true
        else
          match Ksim.Machine.runnable m with
          | [] ->
            if Ksim.Machine.all_done m then (
              match Ksim.Machine.failed (Ksim.Machine.check_leaks m) with
              | Some f -> Hashtbl.replace o.failures (Ksim.Failure.to_string f) ()
              | None -> ())
          | tids ->
            List.iter
              (fun tid ->
                if not o.capped then
                  match Ksim.Engine.step m tid with
                  | Error _ -> ()
                  | Ok (m', _) -> (
                    match Ksim.Machine.failed m' with
                    | Some f ->
                      Hashtbl.replace o.failures
                        (Ksim.Failure.to_string f) ()
                    | None -> go m'))
              tids
      end
  in
  go (Ksim.Engine.boot engine group);
  o

let oracle_finds o = Hashtbl.length o.failures > 0

(* --- LIFS under test ------------------------------------------------------- *)

let lifs ?max_interleavings group =
  Lifs.search ?max_interleavings (Hypervisor.Vm.create group)
    ~target:(fun _ -> true) ()

(* --- counterexample dump --------------------------------------------------- *)

let counterexample_file = "oracle_counterexamples.txt"

let render_group = Oracle_gen.render_group

let dump_counterexample group reason =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 counterexample_file
  in
  output_string oc
    (Fmt.str "=== oracle counterexample: %s@.%s@." reason
       (render_group group));
  close_out oc

(* --- generated programs ---------------------------------------------------- *)

(* The generator lives in Oracle_gen, shared with test_invariants.ml. *)
let arb_oracle_group = Oracle_gen.arb_oracle_group

let checked = ref 0
let agreements_failing = ref 0

let prop_lifs_matches_oracle =
  QCheck.Test.make ~count:250 ~long_factor:10
    ~name:"LIFS finds a failure iff the brute-force oracle does"
    arb_oracle_group
    (fun group ->
      let o = enumerate group in
      if o.capped then true (* state space too large: not a verdict *)
      else begin
        incr checked;
        let result = lifs ~max_interleavings:16 group in
        let ok =
          match result.found with
          | None ->
            if oracle_finds o then (
              dump_counterexample group
                "oracle finds a failing interleaving, LIFS does not";
              false)
            else true
          | Some s ->
            incr agreements_failing;
            if not (oracle_finds o) then (
              dump_counterexample group
                "LIFS reports a failure the oracle cannot reach";
              false)
            else
              let iids =
                List.map
                  (fun (e : Ksim.Machine.event) -> e.iid)
                  s.outcome.trace
              in
              let digest = digest_of_iids iids in
              (match Hashtbl.find_opt o.failing digest with
              | None ->
                dump_counterexample group
                  "LIFS's failing trace is not an oracle interleaving";
                false
              | Some oracle_races ->
                (* LIFS reports trace races plus db-derived pending
                   races; the oracle independently recomputed the trace
                   races of the identical interleaving, so those must
                   coincide exactly and be contained in the report. *)
                let trace_races = race_keys s.outcome.trace in
                let reported =
                  List.sort_uniq String.compare (List.map Race.key s.races)
                in
                if trace_races <> oracle_races then (
                  dump_counterexample group
                    "race sets differ on the same failing interleaving";
                  false)
                else if
                  not
                    (List.for_all
                       (fun k -> List.mem k reported)
                       oracle_races)
                then (
                  dump_counterexample group
                    "LIFS's reported races omit a race of its own trace";
                  false)
                else true)
        in
        ok
      end)

let test_oracle_coverage () =
  (* The acceptance bar: the differential comparison really ran on at
     least 200 generated programs, and the failing direction was
     exercised, not just vacuously agreed on. *)
  checkb
    (Fmt.str "checked %d generated programs >= 200" !checked)
    true (!checked >= 200);
  checkb "some generated programs actually failed" true
    (!agreements_failing > 0)

(* --- fig* corpus bugs ------------------------------------------------------ *)

let fig_bugs =
  List.filter
    (fun (b : Bugs.Bug.t) ->
      String.length b.id >= 3 && String.sub b.id 0 3 = "fig")
    Bugs.Registry.all

let test_fig_bug (bug : Bugs.Bug.t) () =
  let case = bug.case () in
  let o = enumerate_memo case.group in
  checkb
    (Fmt.str "%s: oracle reaches a failure" bug.id)
    true
    (o.capped || oracle_finds o);
  if not o.capped then begin
    (* the diagnosis pipeline agrees with the oracle *)
    let report =
      Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings case
    in
    checkb
      (Fmt.str "%s: pipeline reproduces what the oracle reaches" bug.id)
      true
      (Aitia.Diagnose.reproduced report)
  end

let () =
  (try Sys.remove counterexample_file with Sys_error _ -> ());
  (match Sys.getenv_opt "QCHECK_LONG" with
  | Some _ -> Fmt.pr "oracle: QCHECK_LONG set, extended iteration count@."
  | None -> ());
  let fig_cases =
    List.map
      (fun (bug : Bugs.Bug.t) ->
        Alcotest.test_case bug.id `Slow (test_fig_bug bug))
      fig_bugs
  in
  Alcotest.run "oracle"
    [ ( "generated",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_lifs_matches_oracle;
          Alcotest.test_case "differential coverage" `Quick
            test_oracle_coverage ] );
      ("figures", fig_cases) ]
