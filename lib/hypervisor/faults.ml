(* Deterministic, seedable fault injection for the execution layer.

   Every decision is drawn from a splitmix64 stream seeded at creation,
   so a (spec, seed) pair fully determines the fault schedule across
   runs and OCaml versions.  Decision points are consumed in execution
   order; retried attempts therefore see fresh dice, which is exactly
   the transient-fault model the retry loop assumes. *)

type spec = {
  boot : float;
  hang : float;
  miss : float;
  spurious : float;
  flap : float;
  site : string option;
}

let none =
  { boot = 0.; hang = 0.; miss = 0.; spurious = 0.; flap = 0.; site = None }

(* Each kind gets a sixth of [rate]: the split predates the retired
   snapshot-restore kind, and keeping it keeps every seeded fault stream
   unchanged. *)
let mixed rate =
  let p = rate /. 6. in
  { boot = p; hang = p; miss = p; spurious = p; flap = p; site = None }

let spec_of_string s =
  let field acc item =
    let item = String.trim item in
    if String.equal item "" then acc
    else
      match String.index_opt item '=' with
      | None ->
        failwith (Fmt.str "expected key=value, got %S" item)
      | Some i ->
        let k = String.lowercase_ascii (String.sub item 0 i) in
        let v = String.sub item (i + 1) (String.length item - i - 1) in
        let rate () =
          match float_of_string_opt v with
          | Some r when r >= 0. && r <= 1. -> r
          | Some _ ->
            failwith (Fmt.str "rate out of range [0,1] in %S" item)
          | None -> failwith (Fmt.str "expected a rate in %S" item)
        in
        (match k with
        | "rate" -> { (mixed (rate ())) with site = acc.site }
        | "boot" -> { acc with boot = rate () }
        | "hang" -> { acc with hang = rate () }
        | "miss" -> { acc with miss = rate () }
        | "spurious" -> { acc with spurious = rate () }
        | "flap" -> { acc with flap = rate () }
        | "site" ->
          if String.equal v "" then
            failwith "site= expects an instruction label"
          else { acc with site = Some v }
        | _ -> failwith (Fmt.str "unknown fault kind %S" k))
  in
  match List.fold_left field none (String.split_on_char ',' s) with
  | spec -> Ok spec
  | exception Failure msg -> Error msg

let spec_to_string spec =
  let kinds =
    [ ("boot", spec.boot); ("hang", spec.hang); ("miss", spec.miss);
      ("spurious", spec.spurious); ("flap", spec.flap) ]
  in
  let parts =
    List.filter_map
      (fun (k, r) -> if r > 0. then Some (Fmt.str "%s=%g" k r) else None)
      kinds
    @ match spec.site with Some l -> [ "site=" ^ l ] | None -> []
  in
  if parts = [] then "none" else String.concat "," parts

let pp_spec ppf spec = Fmt.string ppf (spec_to_string spec)

type counts = {
  mutable n_boot : int;
  mutable n_hang : int;
  mutable n_miss : int;
  mutable n_spurious : int;
  mutable n_flap : int;
}

let total c = c.n_boot + c.n_hang + c.n_miss + c.n_spurious + c.n_flap

type t = {
  spec : spec;
  seed : int;
  mutable state : int64;
  counts : counts;
  mutable attempt_tainted : bool;
}

let create ?(seed = 1) spec =
  { spec; seed;
    state = Int64.of_int seed;
    counts =
      { n_boot = 0; n_hang = 0; n_miss = 0; n_spurious = 0; n_flap = 0 };
    attempt_tainted = false }

let spec t = t.spec
let seed t = t.seed
let counts t = t.counts
let injected t = total t.counts

let active t =
  let s = t.spec in
  s.boot > 0. || s.hang > 0. || s.miss > 0. || s.spurious > 0.
  || s.flap > 0.

let flappy t = t.spec.flap > 0.

(* splitmix64: tiny, stateful, portable across OCaml versions. *)
let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0,1): the top 53 bits of the next output. *)
let unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let draw t rate = rate > 0. && unit_float t < rate

(* Uniform in [0,n). *)
let pick t n =
  Int64.to_int
    (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

let start_attempt t = t.attempt_tainted <- false
let tainted t = t.attempt_tainted

let note t kind =
  let c = t.counts in
  let name =
    match kind with
    | `Boot -> c.n_boot <- c.n_boot + 1; "faults.boot"
    | `Hang -> c.n_hang <- c.n_hang + 1; "faults.hang"
    | `Miss -> c.n_miss <- c.n_miss + 1; "faults.miss"
    | `Spurious -> c.n_spurious <- c.n_spurious + 1; "faults.spurious"
    | `Flap -> c.n_flap <- c.n_flap + 1; "faults.flap"
  in
  Telemetry.Probe.count name

let boot_fails t =
  if draw t t.spec.boot then (
    note t `Boot;
    t.attempt_tainted <- true;
    true)
  else false

(* The hang step is drawn up front (bounded so short runs can still be
   hit); counting and tainting wait for the cap to actually fire. *)
let plan_hang t ~max_steps =
  if draw t t.spec.hang then
    Some (1 + pick t (max 1 (min max_steps 4096)))
  else None

let note_hang t =
  note t `Hang;
  t.attempt_tainted <- true

let wrap_policy t (policy : Controller.policy) : Controller.policy =
  if not (draw t t.spec.spurious) then policy
  else (
    let at = 1 + pick t 64 in
    let calls = ref 0 in
    fun m ->
      let choice = policy m in
      incr calls;
      if !calls <> at then choice
      else
        match choice with
        | Some tid -> (
          match
            List.find_opt (fun u -> u <> tid) (Ksim.Machine.runnable m)
          with
          | Some u ->
            note t `Spurious;
            t.attempt_tainted <- true;
            Some u
          | None -> choice)
        | None -> choice)

(* Which positions a site-targeted miss may hit: all of them without a
   site, only those at the named static label with one. *)
let eligible_indices t ~label items =
  List.mapi (fun i it -> (i, it)) items
  |> List.filter_map (fun (i, it) ->
         match t.spec.site with
         | None -> Some i
         | Some site -> if String.equal (label it) site then Some i else None)

let drop_switches t (switches : Schedule.switch list) =
  if switches = [] || not (draw t t.spec.miss) then switches
  else
    let label (sw : Schedule.switch) = sw.after.Ksim.Access.Iid.label in
    match eligible_indices t ~label switches with
    | [] -> switches
    | idxs ->
      let k = List.nth idxs (pick t (List.length idxs)) in
      note t `Miss;
      t.attempt_tainted <- true;
      List.filteri (fun i _ -> i <> k) switches

let drop_plan_event t (plan : Schedule.plan) =
  if plan.events = [] || not (draw t t.spec.miss) then plan
  else
    let label (iid : Schedule.Iid.t) = iid.Ksim.Access.Iid.label in
    match eligible_indices t ~label plan.events with
    | [] -> plan
    | idxs ->
      let k = List.nth idxs (pick t (List.length idxs)) in
      note t `Miss;
      t.attempt_tainted <- true;
      Schedule.plan (List.filteri (fun i _ -> i <> k) plan.events)

let flap t (o : Controller.outcome) =
  if not (draw t t.spec.flap) then o
  else (
    note t `Flap;
    match o.verdict with
    | Controller.Failed _ ->
      (* Missed detection: the failure manifested but the harness did
         not see it. *)
      { o with verdict = Controller.Completed }
    | Controller.Completed | Controller.Deadlock | Controller.Step_limit ->
      (* Spurious detection: fabricate a crash at the last executed
         instruction. *)
      let at =
        match List.rev o.trace with
        | (e : Ksim.Machine.event) :: _ -> e.iid
        | [] -> Ksim.Access.Iid.make ~tid:0 ~label:"<flap>" ~occ:1
      in
      { o with
        verdict = Controller.Failed (Ksim.Failure.General_protection_fault { at })
      })
