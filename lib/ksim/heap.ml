(* The slab-allocator model with KASAN-style shadow state.

   Object identities are never reused within a run, so a dangling pointer
   always refers to an object whose metadata records that it was freed —
   exactly the information KASAN's quarantine preserves to classify a bad
   access as use-after-free rather than a wild fault.  The heap is a
   persistent structure: snapshotting a machine is O(1). *)

module Int_map = Map.Make (Int)

type state = Live | Freed of Access.Iid.t

type obj = {
  tag : string;               (* slab cache name, e.g. "packet_fanout" *)
  gen : int;
  state : state;
  slots : int;                (* indexable size; 0 for plain structs *)
  leak_check : bool;          (* report at end-of-run if never freed *)
  alloc_at : Access.Iid.t;
}

type t = {
  objs : obj Int_map.t;
  next : int;
}

let empty = { objs = Int_map.empty; next = 0 }

let alloc t ~tag ~slots ~leak_check ~at =
  let id = t.next in
  let obj = { tag; gen = 0; state = Live; slots; leak_check; alloc_at = at } in
  ({ objs = Int_map.add id obj t.objs; next = id + 1 }, id)

let find t id = Int_map.find_opt id t.objs

(* Free a pointer; classifies double-frees. *)
let free t ~(ptr : Value.ptr) ~at =
  match find t ptr.obj with
  | None -> Error (Failure.Invalid_free { at })
  | Some o -> (
    match o.state with
    | Freed _ ->
      Error (Failure.Double_free { at; obj = ptr.obj; tag = o.tag })
    | Live ->
      let o = { o with state = Freed at } in
      Ok { t with objs = Int_map.add ptr.obj o t.objs })

(* KASAN check for a field or indexed access through [ptr].  [index] is
   [Some i] for slot accesses, which are additionally bounds-checked. *)
let check_access t ~(ptr : Value.ptr) ~index ~kind ~at =
  match find t ptr.obj with
  | None -> Some (Failure.General_protection_fault { at })
  | Some o -> (
    match o.state with
    | Freed freed_at ->
      Some
        (Failure.Use_after_free
           { at; obj = ptr.obj; tag = o.tag; kind; freed_at = Some freed_at })
    | Live -> (
      match index with
      | Some i when i < 0 || i >= o.slots ->
        Some
          (Failure.Out_of_bounds
             { at; obj = ptr.obj; tag = o.tag; index = i; size = o.slots })
      | Some _ | None -> None))

(* Objects flagged for leak checking that are still live. *)
let leaked t =
  Int_map.fold
    (fun id o acc ->
      match o.state with
      | Live when o.leak_check -> (id, o.tag) :: acc
      | Live | Freed _ -> acc)
    t.objs []
  |> List.rev

(* In-order enumeration of every object (live and freed), for the
   machine fingerprint: Int_map folds in increasing key order, so the
   traversal is canonical regardless of insertion history. *)
let fold f t init = Int_map.fold f t.objs init

let next_id t = t.next

(* Rebuild a heap from an explicit object list — the bridge the compiled
   engine uses to materialize its mutable arena back into the persistent
   representation for fingerprinting. *)
let of_objs objs ~next =
  let m =
    List.fold_left (fun acc (id, o) -> Int_map.add id o acc) Int_map.empty objs
  in
  { objs = m; next }
