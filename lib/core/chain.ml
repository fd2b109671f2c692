(* Causality chains — the root cause as AITIA reports it.

   A chain is an ordered sequence of groups of data races: races in one
   group jointly steer the control flow that enables the next group
   (conjunction, as in Figure 3 where (A2 => B11) /\ (B2 => A6) together
   enable A6 => B12), and the final group enables the failure itself.
   "If a fix does not allow one of the interleaving orders in the chain,
   it does not incur a failure." *)

type node = {
  race : Race.t;
  ambiguous : bool;
  (* Resilience confidence of the race's root-cause verdict: 1.0 unless
     fault-injected re-runs disagreed (quorum vote share) or the retry
     budget was exhausted (0.0). *)
  confidence : float;
}

type t = {
  groups : node list list;    (* earliest first; last group -> failure *)
  failure : Ksim.Failure.t;
}

let races t = List.concat_map (fun g -> List.map (fun n -> n.race) g) t.groups

let length t = List.length (races t)

let has_ambiguity t =
  List.exists (List.exists (fun n -> n.ambiguous)) t.groups

let min_confidence t =
  List.fold_left
    (fun acc g -> List.fold_left (fun acc n -> min acc n.confidence) acc g)
    1. t.groups

(* Full confidence within a rendering epsilon: fault-free chains print
   without any confidence annotation, byte-identical to before. *)
let certain c = c >= 0.999

(* Build a chain from the Causality Analysis result.  Two root-cause
   races with mutual causality edges — flipping either one makes the
   other disappear — are two halves of one multi-variable atomicity
   violation and form a conjunction group (Figure 3's
   (A2 => B11) /\ (B2 => A6)).  Groups are ordered by trace position,
   the failure-adjacent group last. *)
let of_causality (ca : Causality.result) ~(failure : Ksim.Failure.t) : t =
  let is_ambiguous r =
    List.exists (Race.equal r) ca.Causality.ambiguous
  in
  let confidence_of r =
    match
      List.find_opt
        (fun (t : Causality.tested) -> Race.equal t.race r)
        ca.Causality.tested
    with
    | Some t -> t.Causality.confidence
    | None -> 1.
  in
  let edge a b =
    List.exists
      (fun (x, y) -> Race.equal x a && Race.equal y b)
      ca.Causality.edges
  in
  let mutual a b = edge a b && edge b a in
  (* Successors: which root causes disappear when this race is flipped.
     Races with identical successor sets are jointly required — neither
     one's flip disturbs the other — and belong to one conjunction. *)
  let successors r =
    List.filter_map
      (fun (a, b) -> if Race.equal a r then Some b else None)
      ca.Causality.edges
    |> List.sort_uniq Race.compare
  in
  let conjoined a b =
    mutual a b || List.equal Race.equal (successors a) (successors b)
  in
  (* Ambiguous races cannot be attributed (their flip also disturbed a
     nested root cause, §3.4); they are reported alongside the chain but
     excluded from it. *)
  let roots =
    List.filter (fun r -> not (is_ambiguous r)) ca.Causality.root_causes
  in
  let rec component member rest =
    let more, rest' =
      List.partition (fun r -> List.exists (fun m -> conjoined m r) member) rest
    in
    if more = [] then (member, rest')
    else component (member @ more) rest'
  in
  let rec components = function
    | [] -> []
    | r :: rest ->
      let g, rest' = component [ r ] rest in
      g :: components rest'
  in
  let groups =
    components roots
    |> List.map (fun g ->
           List.map
             (fun r ->
               { race = r; ambiguous = is_ambiguous r;
                 confidence = confidence_of r })
             (List.sort
                (fun (a : Race.t) b -> Int.compare a.second.time b.second.time)
                g))
    |> List.sort (fun ga gb ->
           let pos g =
             List.fold_left
               (fun m n -> max m n.race.Race.second.time)
               min_int g
           in
           Int.compare (pos ga) (pos gb))
  in
  { groups; failure }

let pp_node ppf n =
  Fmt.pf ppf "(%a)%s%s" Race.pp_short n.race
    (if n.ambiguous then "?" else "")
    (if certain n.confidence then ""
     else Fmt.str "[~%.0f%%]" (100. *. n.confidence))

let pp ppf t =
  let pp_group ppf g =
    Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " /\\ ") pp_node) g
  in
  Fmt.pf ppf "%a --> %s"
    (Fmt.list ~sep:(Fmt.any " --> ") pp_group)
    t.groups
    (Ksim.Failure.symptom t.failure)

let to_string t = Fmt.str "%a" pp t

(* Full form, with addresses: used in detailed reports. *)
let pp_detailed ppf t =
  List.iteri
    (fun i g ->
      Fmt.pf ppf "  [%d] %a@."
        (i + 1)
        (Fmt.list ~sep:(Fmt.any "  /\\  ") (fun ppf n ->
             Fmt.pf ppf "%a%s%s" Race.pp n.race
               (if n.ambiguous then " (ambiguous)" else "")
               (if certain n.confidence then ""
                else Fmt.str " (confidence ~%.0f%%)" (100. *. n.confidence))))
        g)
    t.groups;
  Fmt.pf ppf "  ==> %a" Ksim.Failure.pp t.failure
