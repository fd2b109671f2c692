(* Data races over dynamic accesses, and their extraction from a trace.

   A race [first => second] is a pair of conflicting accesses with an
   observed (or to-be-enforced) execution order.  The test set of
   Causality Analysis is initialized with the races of the
   failure-causing instruction sequence (§3.4). *)

module Iid = Ksim.Access.Iid

type t = {
  first : Ksim.Access.t;
  second : Ksim.Access.t;
}

(* Races are identified by their dynamic endpoints, direction and
   location.  Identity is structural; [key] renders the same triple as a
   string for journals and reports only. *)
let key r =
  Fmt.str "%a=>%a@%a" Iid.pp_full r.first.iid Iid.pp_full r.second.iid
    Ksim.Addr.pp r.first.addr

let equal a b =
  Iid.equal a.first.iid b.first.iid
  && Iid.equal a.second.iid b.second.iid
  && Ksim.Addr.equal a.first.addr b.first.addr

let compare a b =
  let c = Iid.compare a.first.iid b.first.iid in
  if c <> 0 then c
  else
    let c = Iid.compare a.second.iid b.second.iid in
    if c <> 0 then c else Ksim.Addr.compare a.first.addr b.first.addr

(* Deduplication key: the identity triple. *)
let ident r = (r.first.iid, r.second.iid, r.first.addr)

let dedup races =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun r ->
      let k = ident r in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    races

let addr r = r.first.addr

(* A lock-protected pair is not a data race in the KCSAN sense; flag it
   as the critical-section-order case it is (§3.4). *)
let is_cs_order r = Ksim.Access.commonly_locked r.first r.second

let pp ppf r =
  Fmt.pf ppf "%a(%a) => %a(%a)%s" Iid.pp_full r.first.iid Ksim.Addr.pp
    r.first.addr Iid.pp_full r.second.iid Ksim.Addr.pp r.second.addr
    (if is_cs_order r then " [critical-section order]" else "")

let pp_short ppf r =
  Fmt.pf ppf "%s => %s" r.first.iid.Iid.label r.second.iid.Iid.label

(* --- extraction from traces ------------------------------------------ *)

let accesses_of_trace (trace : Ksim.Machine.event list) : Ksim.Access.t list =
  List.filter_map (fun (e : Ksim.Machine.event) -> e.access) trace

(* The per-location access sequences of a trace.  A [Whole o] access
   (kfree) participates in the sequence of every location of object [o]
   that the trace touches, because it overlaps them all. *)
let location_sequences (accesses : Ksim.Access.t list) :
    (Ksim.Addr.t * Ksim.Access.t list) list =
  let exact =
    List.fold_left
      (fun m (a : Ksim.Access.t) ->
        Ksim.Addr.Map.update a.addr
          (fun l -> Some (a :: Option.value ~default:[] l))
          m)
      Ksim.Addr.Map.empty accesses
  in
  Ksim.Addr.Map.fold
    (fun addr seq acc ->
      let seq =
        match addr with
        | Ksim.Addr.Whole _ -> seq
        | _ ->
          (* Merge in overlapping Whole accesses from other locations. *)
          let wholes =
            List.filter
              (fun (a : Ksim.Access.t) ->
                (not (Ksim.Addr.equal a.addr addr))
                && Ksim.Addr.overlaps a.addr addr)
              accesses
          in
          wholes @ seq
      in
      let seq =
        List.sort
          (fun (a : Ksim.Access.t) b -> Int.compare a.time b.time)
          seq
      in
      (addr, seq) :: acc)
    exact []

(* All races of a trace.  Per location, each access [a] races with the
   first later access [b] that conflicts with it — unless an access by
   [a]'s own thread in between supersedes [a] (e.g. a later write to the
   same location: the race that matters is between that write and [b],
   not the stale [a]). *)
let of_trace (trace : Ksim.Machine.event list) : t list =
  let accesses = accesses_of_trace trace in
  let seen = Hashtbl.create 64 in
  let races = ref [] in
  let supersedes (a : Ksim.Access.t) (c : Ksim.Access.t)
      (b : Ksim.Access.t) =
    (* [c] lies between [a] and [b] in program order of [a]'s thread and
       itself conflicts with [b]: it shadows [a]. *)
    c.iid.Iid.tid = a.iid.Iid.tid && Ksim.Access.conflicting c b
  in
  List.iter
    (fun (_addr, seq) ->
      let rec scan = function
        | [] -> ()
        | a :: rest ->
          let rec first_conflict between = function
            | [] -> ()
            | b :: more ->
              if Ksim.Access.conflicting a b then (
                if not (List.exists (fun c -> supersedes a c b) between)
                then (
                  let r = { first = a; second = b } in
                  let k = ident r in
                  if not (Hashtbl.mem seen k) then (
                    Hashtbl.add seen k ();
                    races := r :: !races)))
              else first_conflict (b :: between) more
          in
          first_conflict [] rest;
          scan rest
      in
      scan seq)
    (location_sequences accesses);
  (* Order by the position (time) of the second access: the natural
     backward-processing order is the reverse of this. *)
  List.sort (fun a b -> Int.compare a.second.time b.second.time) !races

(* Races whose second access did not execute because the failure halted
   the machine: for the last access of each location in the failing
   trace, consult the cross-run access database for conflicting
   instructions of other threads that had not yet executed (e.g. the
   B17 => A12 race of Figure 6: the BUG_ON fired before A12 ran). *)
let pending_of_failure ~(db : Ksim.Kcov.db) ~(final : Ksim.Machine.t)
    (trace : Ksim.Machine.event list) : t list =
  let accesses = accesses_of_trace trace in
  let thread_of_base base =
    List.find_opt
      (fun tid -> String.equal (Ksim.Machine.thread_base final tid) base)
      (Ksim.Machine.thread_ids final)
  in
  let executed_labels tid label =
    Ksim.Machine.occurrences final tid label
  in
  let pend (last : Ksim.Access.t) =
    Ksim.Kcov.accessors db last.addr
    |> List.filter_map (fun ((site : Ksim.Kcov.site), kind) ->
           match thread_of_base site.site_thread with
           | None -> None
           | Some tid ->
             if tid = last.iid.Iid.tid then None
             else if kind = Ksim.Instr.Read && not (Ksim.Access.is_write last)
             then None
             else if executed_labels tid site.site_label > 0 then None
             else if Ksim.Machine.is_done final tid then None
             else
               let iid =
                 Iid.make ~tid ~label:site.site_label ~occ:1
               in
               Some
                 { first = last;
                   second =
                     { Ksim.Access.iid; addr = last.addr; kind;
                       time = last.time + 1; held = [] } })
  in
  match List.rev trace with
  | [] -> []
  | _ ->
    location_sequences accesses
    |> List.concat_map (fun (_addr, seq) ->
           match List.rev seq with
           | [] -> []
           | last :: _ -> pend last)
    |> dedup

(* --- structural relations used by Causality Analysis ------------------ *)

(* [surrounds outer inner]: flipping [outer] cannot preserve [inner]'s
   order (Figure 7).  This happens when [inner.second] precedes
   [outer.second] in the same thread and [outer.first] precedes
   [inner.first] in the same thread: enforcing outer.second before
   outer.first then forces inner.second before inner.first too. *)
let surrounds outer inner =
  (not (equal outer inner))
  && inner.second.iid.Iid.tid = outer.second.iid.Iid.tid
  && inner.second.time < outer.second.time
  && inner.first.iid.Iid.tid = outer.first.iid.Iid.tid
  && outer.first.time < inner.first.time

(* Did [r] occur in [trace] — both endpoints executed, in the race's
   order?  An inverted pair is a different interleaving order, hence a
   different race, so it does not count as an occurrence of [r].  One
   scan: [r] occurred iff [first] was seen before [second] first shows
   up. *)
let occurred_in (trace : Ksim.Machine.event list) r =
  let rec go seen_first = function
    | [] -> false
    | (e : Ksim.Machine.event) :: rest ->
      if Iid.equal e.iid r.second.iid then seen_first
      else go (seen_first || Iid.equal e.iid r.first.iid) rest
  in
  go false trace
