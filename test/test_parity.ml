(* The parity matrix: the causality chain, the product of a diagnosis,
   must not depend on the engine, the static proofs, run derivation or
   a journal resume.

   Each of the 29 registered cases is diagnosed once per cell (a
   setting of the diagnose flags plus the engine), and each cell keeps
   a fingerprint: the rendered report, the flip log (race key, verdict,
   pruned reason, enforced, confidence) and the sorted counters of a
   recorder private to the cell (spans, being host time, are left
   out).  The cells are compared along these axes:

   - engine: the reference and compiled engines give equal
     fingerprints under default flags, --prune invariants, --prune
     invariants --order gain and --fault-spec rate=0.05 --fault-seed 7;
   - prune: under each --order, --prune none and --prune invariants
     give the same chain;
   - derivation: under each --prune, default flags (trace-equivalent
     LIFS runs derived) and --fault-spec rate=0 (every run executed)
     give the same chain;
   - journal: under default flags, a resume over a complete journal
     and one after an interruption following the first checkpointed
     flip render the report of an uninterrupted run;
   - gain counter: under --order gain and either --prune, the
     lifs.gain_reorderings counter equals the report's LIFS stat.

   Backward and gain order are not compared with each other: under
   gain, ext-lock loses its root cause (a known defect, ROADMAP item 2;
   not an expected output).

   A mismatch appends both sides to parity_counterexamples.txt and
   fails the case's test, naming the axis and the cells.  The run ends
   with the number of comparisons made. *)

module Engine = Ksim.Engine
module Faults = Hypervisor.Faults
module Journal = Aitia.Journal
module Recorder = Telemetry.Recorder

let counterexample_file = "parity_counterexamples.txt"

(* --- cells ------------------------------------------------------------ *)

type cell = {
  prune : Aitia.Causality.prune;
  order : Aitia.Lifs.order;
  faults : string option;  (** --fault-spec, at --fault-seed 7 *)
  engine : Engine.kind;
}

let default_cell =
  { prune = `None; order = `Fixed; faults = None; engine = Engine.default }

let pruned = { default_cell with prune = `Invariants }
let gain = { default_cell with order = `Gain }
let pruned_gain = { pruned with order = `Gain }
let faulted = { default_cell with faults = Some "rate=0.05" }

let fault_seed = 7

let cell_name c =
  let flags =
    List.concat
      [ (match c.prune with
        | `None -> []
        | `Invariants -> [ "--prune invariants" ]);
        (match c.order with `Fixed -> [] | `Gain -> [ "--order gain" ]);
        (match c.faults with
        | None -> []
        | Some s ->
          [ Fmt.str "--fault-spec %s --fault-seed %d" s fault_seed ]) ]
  in
  Fmt.str "%s [%s]"
    (if flags = [] then "default flags" else String.concat " " flags)
    (Engine.to_string c.engine)

exception Interrupted

(* A sink that raises once the (n+1)-th Causality flip closes, before
   that flip is checkpointed: the journal then holds exactly n flips. *)
let interrupt_after_flips n (inner : Telemetry.Sink.t) =
  let seen = ref 0 in
  { inner with
    Telemetry.Sink.on_span =
      (fun s ->
        inner.on_span s;
        if String.equal s.Telemetry.Sink.span_name "causality.flip" then (
          incr seen;
          if !seen > n then raise Interrupted)) }

(* The cell's diagnosis of [bug] under a private recorder, built as
   [Batch.diagnose] builds the CLI's. *)
let diagnose ?journal ?(wrap = Fun.id) (bug : Bugs.Bug.t) c =
  let faults =
    Option.map
      (fun s ->
        match Faults.spec_of_string s with
        | Ok spec -> Faults.create ~seed:fault_seed spec
        | Error e -> failwith e)
      c.faults
  in
  let resilience =
    Aitia.Resilience.policy_for ~faulted:(faults <> None) None
  in
  let rc = Recorder.create () in
  let report =
    Telemetry.Probe.with_sink
      (wrap (Recorder.sink rc))
      (fun () ->
        Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
          ~prune:c.prune ~order:c.order ?faults ?resilience ?journal
          ~engine:c.engine (bug.case ()))
  in
  (report, rc)

type fingerprint = {
  report : string;
  chain : string option;
  search : string;
      (** the reproducing schedule and the LIFS runs explored, executed
          or derived *)
  flips : string list;
  counters : (string * int) list;
  gain_reorderings : int;  (** the report's LIFS stat *)
}

let fingerprint ((r : Aitia.Diagnose.report), rc) =
  { report = Aitia.Report.to_string r;
    chain = Option.map Aitia.Chain.to_string r.chain;
    search =
      Fmt.str "reproducing schedule: %s@.explored LIFS runs: %d"
        (match r.lifs.found with
        | Some s -> Hypervisor.Schedule.preemption_key s.schedule
        | None -> "-")
        (r.lifs.stats.schedules + r.lifs.stats.trace_equivalent);
    flips =
      (match r.causality with
      | None -> []
      | Some ca ->
        List.map
          (fun (t : Aitia.Causality.tested) ->
            Fmt.str "%s %s pruned=%s enforced=%b confidence=%h"
              (Aitia.Race.key t.race)
              (match t.verdict with
              | Aitia.Causality.Root_cause -> "root-cause"
              | Aitia.Causality.Benign -> "benign")
              (Option.value ~default:"-" t.pruned)
              t.enforced t.confidence)
          ca.tested);
    counters = Recorder.counters rc;
    gain_reorderings = r.lifs.stats.gain_reorderings }

let render_full f =
  String.concat "\n"
    ((f.report :: "flip log:" :: f.flips)
    @ ("counters:"
      :: List.map (fun (k, v) -> Fmt.str "%s %d" k v) f.counters))

let render_chain f = Option.value ~default:"(not reproduced)" f.chain

(* Every cell of a case is diagnosed at most once, whichever axes read
   it. *)
let memo : (string * cell, fingerprint) Hashtbl.t = Hashtbl.create 512

let cell (bug : Bugs.Bug.t) c =
  match Hashtbl.find_opt memo (bug.id, c) with
  | Some f -> f
  | None ->
    let f = fingerprint (diagnose bug c) in
    Hashtbl.replace memo (bug.id, c) f;
    f

(* --- comparisons ------------------------------------------------------ *)

let comparisons = ref 0

let compare_sides (bug : Bugs.Bug.t) ~axis (name_a, a) (name_b, b) =
  incr comparisons;
  if not (String.equal a b) then (
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644
      counterexample_file (fun oc ->
        Out_channel.output_string oc
          (Fmt.str
             "=== parity counterexample: %s, %s axis: %s vs %s@.--- \
              %s@.%s@.--- %s@.%s@.@."
             bug.id axis name_a name_b name_a a name_b b));
    Alcotest.failf "%s, %s axis: %s differs from %s (both in %s)" bug.id
      axis name_b name_a counterexample_file)

let test_engine bug () =
  List.iter
    (fun c ->
      let side engine =
        let c = { c with engine } in
        (cell_name c, render_full (cell bug c))
      in
      compare_sides bug ~axis:"engine" (side Engine.Reference)
        (side Engine.Compiled))
    [ default_cell; pruned; pruned_gain; faulted ]

let test_prune bug () =
  List.iter
    (fun (plain, proved) ->
      let side c = (cell_name c, render_chain (cell bug c)) in
      compare_sides bug ~axis:"prune" (side plain) (side proved))
    [ (default_cell, pruned); (gain, pruned_gain) ]

(* --fault-spec rate=0 arms an injector that never fires, which turns
   run derivation off: every LIFS run derived under default flags is
   executed instead, so the search, not only the chain, is the same. *)
let test_derivation bug () =
  List.iter
    (fun derived ->
      let side c =
        let f = cell bug c in
        (cell_name c, render_chain f ^ "\n" ^ f.search)
      in
      compare_sides bug ~axis:"derivation" (side derived)
        (side { derived with faults = Some "rate=0" }))
    [ default_cell; pruned ]

let test_journal bug () =
  let fresh = (cell_name default_cell, (cell bug default_cell).report) in
  let path = Filename.temp_file "aitia-parity" ".journal.json" in
  let resume what =
    match Journal.load path with
    | Ok j ->
      compare_sides bug ~axis:"journal" fresh
        ( what,
          Aitia.Report.to_string
            (fst (diagnose ~journal:j bug default_cell)) )
    | Error e -> Alcotest.failf "%s: journal unreadable: %s" bug.id e
  in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (diagnose ~journal:(Journal.create path) bug default_cell);
  resume "resume over a complete journal";
  (match
     diagnose ~journal:(Journal.create path)
       ~wrap:(interrupt_after_flips 1) bug default_cell
   with
  | _ -> Alcotest.failf "%s: under two flips, nothing to interrupt" bug.id
  | exception Interrupted -> ());
  resume "resume after the first checkpointed flip"

let test_gain_counter bug () =
  List.iter
    (fun c ->
      let f = cell bug c in
      let counted =
        Option.value ~default:0
          (List.assoc_opt "lifs.gain_reorderings" f.counters)
      in
      compare_sides bug ~axis:"gain counter"
        (cell_name c ^ " report", string_of_int f.gain_reorderings)
        (cell_name c ^ " lifs.gain_reorderings", string_of_int counted))
    [ gain; pruned_gain ]

let () =
  (try Sys.remove counterexample_file with Sys_error _ -> ());
  let cases = Bugs.Registry.all in
  let group name test =
    ( name,
      List.map
        (fun (bug : Bugs.Bug.t) ->
          Alcotest.test_case bug.id `Quick (test bug))
        cases )
  in
  let status =
    match
      Alcotest.run ~and_exit:false "parity"
        [ group "engine" test_engine;
          group "prune" test_prune;
          group "derivation" test_derivation;
          group "journal" test_journal;
          group "gain counter" test_gain_counter ]
    with
    | () -> 0
    | exception Alcotest.Test_error -> 1
  in
  Fmt.pr "parity: %d comparison(s) over %d cases@." !comparisons
    (List.length cases);
  exit status
