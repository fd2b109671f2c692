(** Coverage and memory-access instrumentation over executed traces —
    the kcov + disassembly role of the paper (§4.3): it tells AITIA
    which instruction sites access which locations, across runs. *)

type trace = Machine.event list

type site = {
  site_thread : string;  (** stable thread identity (spec/entry name) *)
  site_label : string;   (** static instruction label *)
}

val site_compare : site -> site -> int
val pp_site : site Fmt.t

type db
(** The cross-run access database, learned in place: which addresses
    each instruction site has been seen to access, and the reverse
    index. *)

val create : unit -> db
(** An empty database. *)

val add_trace : thread_base:(int -> string) -> db -> trace -> unit
(** Learn the accesses of a trace, in trace order.  [thread_base] maps
    the trace's thread ids to stable names (see {!Machine.thread_base}).
    An access the database already holds, by (thread base, label,
    address, kind), costs one label probe and one address probe; only
    a new one is added, so the reverse index grows exactly as a fold
    over every event would grow it. *)

val accessors : db -> Addr.t -> (site * Instr.access_kind) list
(** Sites known to access [addr] or an overlapping location. *)

val has_conflict :
  db -> site:site -> addr:Addr.t -> kind:Instr.access_kind -> bool
(** Does some other thread's site conflict with an access by [site]? *)

val sites : db -> site list
(** Every site with a known access, in {!site_compare} order. *)

val coverage :
  trace list -> thread_base:(int -> string) -> int Map.Make(String).t
(** Distinct labels executed per thread base name. *)
