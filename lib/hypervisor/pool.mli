(** Work-stealing worker pool over the build-time selected backend
    (OCaml 5 domains, or a sequential stand-in below 5.0).

    Tasks are submitted as an indexed batch; results come back as an
    array indexed by task, so callers can merge shards in submission
    order and obtain output that is bit-identical to a sequential run
    regardless of which worker finished first.  Exceptions raised by
    tasks are captured per index and the lowest-indexed one is
    re-raised after the batch drains, mirroring what a sequential
    left-to-right run would have reported first. *)

type t

val backend : string
(** Name of the compiled-in backend: ["domains"] or ["sequential"]. *)

val parallel_available : bool
(** [true] iff the backend can actually run tasks concurrently. *)

val create : jobs:int -> t
(** [create ~jobs] makes a pool that runs batches on [jobs] workers
    (the calling thread participates as worker 0; [jobs - 1] domains
    are spawned per batch).  Raises [Invalid_argument] if [jobs < 1].
    On the sequential backend any [jobs] value degrades gracefully to
    in-order execution. *)

val run : t -> (int -> 'a) -> int -> 'a array
(** [run t f n] evaluates [f 0 .. f (n-1)], possibly concurrently, and
    returns the results in index order.  Task [i] is seeded to worker
    [i mod jobs]; idle workers steal from the back of the longest
    queue.  With [jobs = 1] (or on the sequential backend) tasks run
    in index order on the calling thread. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] is [run] over a list, preserving order. *)

(** Mutex shim shared with the backend: a real [Mutex.t] on the
    domains backend, a no-op below 5.0, so code that guards shared
    state needs no threads dependency on the 4.14 leg. *)
module Lock : sig
  type t

  val create : unit -> t
  val protect : t -> (unit -> 'a) -> 'a
end
