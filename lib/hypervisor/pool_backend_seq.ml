(* Pool backend, OCaml 4 build: no domains, so [spawn] runs the worker
   body inline to completion — the pool degenerates to a sequential
   drain of the queues — and locks are no-ops (there is provably a
   single thread of execution).  Selected by the dune rules below 5.0. *)

let name = "sequential"
let parallel = false
let recommended_jobs = 1

module Lock = struct
  type t = unit

  let create () = ()
  let protect () f = f ()
end

type handle = unit

let spawn (f : unit -> unit) : handle = f ()
let join (_ : handle) = ()
