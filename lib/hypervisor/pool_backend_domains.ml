(* Pool backend, OCaml 5 build: real domains.  The dune rules copy
   this file to pool_backend.ml on >= 5.0 and pool_backend_seq.ml (a
   single-threaded stand-in with the same signature) otherwise, so the
   4.14 matrix leg keeps compiling without a threads dependency. *)

let name = "domains"
let parallel = true
let recommended_jobs = Domain.recommended_domain_count ()

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

(* Worker domains outlive their task: a domain that finished one parks
   until [spawn] hands it the next, so a process that runs many batches
   starts each worker domain once.  OCaml 5 hands a terminated domain's
   heap to the surviving domains and keeps its heap statistics, so
   spawning fresh domains for every batch grew the heap, and the top
   heap size the runtime reports, with every batch run. *)
type slot = {
  m : Mutex.t;
  c : Condition.t;
  mutable task : (unit -> unit) option;
  mutable issued : int;  (* tasks handed to the slot *)
  mutable finished : int;  (* tasks run to the end *)
  mutable failure : exn option;  (* raised by the last task *)
}

type handle = slot * int  (* the slot and the task's ticket *)

let parked : slot list ref = ref []
let parked_lock = Lock.create ()

(* Run tasks forever.  The slot parks before its task is reported
   finished, so a caller that joins and then spawns again finds it. *)
let rec serve s =
  Mutex.lock s.m;
  let rec next () =
    match s.task with
    | Some f ->
      s.task <- None;
      f
    | None ->
      Condition.wait s.c s.m;
      next ()
  in
  let f = next () in
  Mutex.unlock s.m;
  let failure = match f () with () -> None | exception e -> Some e in
  Lock.protect parked_lock (fun () -> parked := s :: !parked);
  Lock.protect s.m (fun () ->
      s.failure <- failure;
      s.finished <- s.finished + 1;
      Condition.broadcast s.c);
  serve s

let spawn (f : unit -> unit) : handle =
  let s =
    Lock.protect parked_lock (fun () ->
        match !parked with
        | s :: rest ->
          parked := rest;
          Some s
        | [] -> None)
  in
  let s =
    match s with
    | Some s -> s
    | None ->
      let s =
        { m = Mutex.create (); c = Condition.create (); task = None;
          issued = 0; finished = 0; failure = None }
      in
      ignore (Domain.spawn (fun () -> serve s) : unit Domain.t);
      s
  in
  Lock.protect s.m (fun () ->
      s.task <- Some f;
      s.issued <- s.issued + 1;
      Condition.broadcast s.c;
      (s, s.issued))

let join ((s, ticket) : handle) =
  Mutex.lock s.m;
  while s.finished < ticket do
    Condition.wait s.c s.m
  done;
  let failure = s.failure in
  s.failure <- None;
  Mutex.unlock s.m;
  Option.iter raise failure
