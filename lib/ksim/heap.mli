(** The slab-allocator model with KASAN-style shadow state.

    Object identities are never reused within a run, so the metadata of
    a freed object survives (as in KASAN's quarantine) and a dangling
    access classifies as use-after-free rather than a wild fault.  The
    heap is persistent: snapshotting costs nothing. *)

type state = Live | Freed of Access.Iid.t

type obj = {
  tag : string;          (** slab cache name, e.g. ["packet_fanout"] *)
  gen : int;
  state : state;
  slots : int;           (** indexable size; 0 for plain structs *)
  leak_check : bool;     (** report at end of run if never freed *)
  alloc_at : Access.Iid.t;
}

type t

val empty : t

val alloc :
  t -> tag:string -> slots:int -> leak_check:bool -> at:Access.Iid.t ->
  t * Value.obj_id

val find : t -> Value.obj_id -> obj option

val free :
  t -> ptr:Value.ptr -> at:Access.Iid.t -> (t, Failure.t) result
(** Classifies double-frees and invalid frees. *)

val check_access :
  t -> ptr:Value.ptr -> index:int option -> kind:Instr.access_kind ->
  at:Access.Iid.t -> Failure.t option
(** KASAN check for a field ([index = None]) or slot access; slots are
    bounds-checked. *)

val leaked : t -> (Value.obj_id * string) list
(** Live [leak_check] objects, for the end-of-run leak report. *)

val fold : (Value.obj_id -> obj -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every object, live and freed, in increasing id order —
    a canonical traversal for state fingerprinting. *)

val next_id : t -> int
(** The next object id the allocator would hand out. *)

val of_objs : (Value.obj_id * obj) list -> next:int -> t
(** Rebuild a heap from an explicit object list.  Used by the compiled
    engine to materialize its arena into the persistent form. *)
