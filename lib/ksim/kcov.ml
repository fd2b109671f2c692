(* Coverage and memory-access instrumentation over executed event traces.

   This plays the role kcov + disassembly play in the paper: the user
   agent learns which instructions each thread executed and which of them
   access memory, and accumulates a database of accesses across runs so
   that LIFS can derive candidate conflicting instructions. *)

module Smap = Map.Make (String)

type trace = Machine.event list

(* Static identity of an instruction inside a group: thread id is dynamic
   across runs for spawned threads, so the database keys accesses by
   (thread name is unstable too for spawned threads) — we use the entry
   name + label, which is stable. *)
type site = {
  site_thread : string;  (* top-level thread spec name or entry name *)
  site_label : string;
}

let site_compare a b =
  let c = String.compare a.site_thread b.site_thread in
  if c <> 0 then c else String.compare a.site_label b.site_label

let pp_site ppf s = Fmt.pf ppf "%s:%s" s.site_thread s.site_label

(* Addresses hashed by their integers alone: a site's accesses differ
   in object ids and indices, rarely in names, so names are compared
   only on a hash hit. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = Addr.t

  let equal = Addr.equal

  let hash = function
    | Addr.Global _ -> 0
    | Addr.Field (o, _) -> 1 + (4 * o)
    | Addr.Index (o, i) -> 2 + (4 * ((o * 65599) + i))
    | Addr.Whole o -> 3 + (4 * o)
end)

(* Labels are short, so an inline hash beats the generic one; they are
   shared with the program, so [String.equal] mostly returns on physical
   equality. *)
module Label_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s =
    let h = ref 0 in
    for i = 0 to String.length s - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    !h land max_int
end)

(* One instruction site and the kinds it has been seen to access each
   address with. *)
type entry = {
  e_site : site;
  e_known : Instr.access_kind list Addr_tbl.t;
}

(* The cross-run access database, learned in place.  [index] finds a
   site's entry by thread base, then label, so an access the database
   already holds costs one label probe and one address probe; only a
   new pair touches [by_addr], the reverse index conflict derivation
   reads.  [by_addr] grows exactly as a fold over every event would
   grow it: the same pairs, in the same order. *)
type db = {
  index : (string, entry Label_tbl.t) Hashtbl.t;
  mutable by_addr : (site * Instr.access_kind) list Addr.Map.t;
}

let create () = { index = Hashtbl.create 8; by_addr = Addr.Map.empty }

let labels_of db base =
  match Hashtbl.find_opt db.index base with
  | Some t -> t
  | None ->
    let t = Label_tbl.create 32 in
    Hashtbl.add db.index base t;
    t

(* Learn a trace's accesses in trace order.  A thread's base is fixed
   within a trace, so each thread id resolves to its base's label table
   once per trace. *)
let add_trace ~thread_base db (trace : trace) =
  let tables = ref [||] in
  let labels tid =
    if tid >= Array.length !tables then (
      let grown = Array.make (max (tid + 1) (2 * Array.length !tables)) None in
      Array.blit !tables 0 grown 0 (Array.length !tables);
      tables := grown);
    match !tables.(tid) with
    | Some t -> t
    | None ->
      let t = labels_of db (thread_base tid) in
      !tables.(tid) <- Some t;
      t
  in
  List.iter
    (fun (e : Machine.event) ->
      match e.access with
      | None -> ()
      | Some a ->
        let tid = e.iid.Access.Iid.tid and label = e.iid.Access.Iid.label in
        let t = labels tid in
        let entry =
          match Label_tbl.find_opt t label with
          | Some entry -> entry
          | None ->
            let entry =
              { e_site = { site_thread = thread_base tid; site_label = label };
                e_known = Addr_tbl.create 4 }
            in
            Label_tbl.add t label entry;
            entry
        in
        let kinds =
          match Addr_tbl.find_opt entry.e_known a.addr with
          | Some kinds -> kinds
          | None -> []
        in
        if not (List.memq a.kind kinds) then (
          Addr_tbl.replace entry.e_known a.addr (a.kind :: kinds);
          db.by_addr <-
            Addr.Map.update a.addr
              (fun l ->
                Some ((entry.e_site, a.kind) :: Option.value ~default:[] l))
              db.by_addr))
    trace

(* Sites known to access [addr] (or an overlapping location). *)
let accessors db addr =
  Addr.Map.fold
    (fun a sites acc ->
      if Addr.overlaps a addr then List.rev_append sites acc else acc)
    db.by_addr []

(* Does some *other* thread conflict with an access by [site] to [addr]? *)
let has_conflict db ~site ~addr ~kind =
  accessors db addr
  |> List.exists (fun (s, k) ->
         (not (String.equal s.site_thread site.site_thread))
         && (kind <> Instr.Read || k <> Instr.Read))

let sites db =
  Hashtbl.fold
    (fun _ labels acc ->
      Label_tbl.fold
        (fun _ entry acc -> entry.e_site :: acc)
        labels acc)
    db.index []
  |> List.sort site_compare

(* Coverage summary: distinct labels executed per thread base name. *)
let coverage (traces : trace list) ~thread_base =
  List.fold_left
    (fun acc trace ->
      List.fold_left
        (fun acc (e : Machine.event) ->
          let base = thread_base e.iid.Access.Iid.tid in
          let labels = Option.value ~default:Smap.empty (Smap.find_opt base acc) in
          Smap.add base (Smap.add e.iid.Access.Iid.label () labels) acc)
        acc trace)
    Smap.empty traces
  |> Smap.map (fun labels -> Smap.cardinal labels)
