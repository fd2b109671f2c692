(* Pool backend, OCaml 5 build: real domains.  The dune rules copy
   this file to pool_backend.ml on >= 5.0 and pool_backend_seq.ml (a
   single-threaded stand-in with the same signature) otherwise, so the
   4.14 matrix leg keeps compiling without a threads dependency. *)

let name = "domains"
let parallel = true

module Lock = struct
  type t = Mutex.t

  let create () = Mutex.create ()

  (* Mutex.protect only appeared in 5.1; open-code it. *)
  let protect m f =
    Mutex.lock m;
    match f () with
    | v ->
      Mutex.unlock m;
      v
    | exception e ->
      Mutex.unlock m;
      raise e
end

type handle = unit Domain.t

let spawn (f : unit -> unit) : handle = Domain.spawn f
let join (h : handle) = Domain.join h
