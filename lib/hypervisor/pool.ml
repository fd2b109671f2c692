(* Work-stealing pool over the build-time selected backend.

   A batch of n tasks is dealt round-robin across per-worker deques
   (task i seeds worker i mod jobs, so each queue's front holds its
   lowest indices).  Workers pop their own queue from the front and,
   when empty, steal from the back of the longest other queue — the
   classic split keeps owners on cheap cache-warm work and thieves on
   the large straggler tails.  All tasks exist up front, so a worker
   that finds every queue empty can simply return; the queues need no
   condition variables.

   Determinism: results land in an array slot owned by exactly one
   task, and the caller reads them only after every worker has joined
   (the backend's join publishes the writes), so merging in index
   order gives output independent of scheduling.  Exceptions are
   captured per index and the lowest-indexed one is re-raised — the
   one a sequential left-to-right run would have hit first. *)

type t = { pool_jobs : int }

let backend = Pool_backend.name
let parallel_available = Pool_backend.parallel
let recommended_jobs = Pool_backend.recommended_jobs

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { pool_jobs = jobs }

let run_seq f n =
  if n = 0 then [||]
  else begin
    let results = Array.make n (f 0) in
    for i = 1 to n - 1 do
      results.(i) <- f i
    done;
    results
  end

(* Remove and return the last element of a non-empty list. *)
let take_back q =
  let rec split acc = function
    | [ last ] -> (List.rev acc, last)
    | x :: rest -> split (x :: acc) rest
    | [] -> assert false
  in
  split [] q

let run_parallel t f n =
  let w = min t.pool_jobs n in
  let results = Array.make n None in
  let errors = Array.make n None in
  let lock = Pool_backend.Lock.create () in
  let queues = Array.make w [] in
  for i = n - 1 downto 0 do
    queues.(i mod w) <- i :: queues.(i mod w)
  done;
  let take wid =
    Pool_backend.Lock.protect lock (fun () ->
        match queues.(wid) with
        | i :: rest ->
          queues.(wid) <- rest;
          Some i
        | [] ->
          let victim = ref (-1) and best = ref 0 in
          for j = 0 to w - 1 do
            let len = List.length queues.(j) in
            if j <> wid && len > !best then begin
              victim := j;
              best := len
            end
          done;
          if !victim < 0 then None
          else begin
            let front, last = take_back queues.(!victim) in
            queues.(!victim) <- front;
            Some last
          end)
  in
  let rec worker wid =
    match take wid with
    | None -> ()
    | Some i ->
      (match f i with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      worker wid
  in
  let handles =
    List.init (w - 1) (fun k -> Pool_backend.spawn (fun () -> worker (k + 1)))
  in
  worker 0;
  List.iter Pool_backend.join handles;
  let first_err = ref None in
  for i = n - 1 downto 0 do
    match errors.(i) with Some e -> first_err := Some e | None -> ()
  done;
  (match !first_err with Some e -> raise e | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let run t f n =
  if n = 0 then [||]
  else if t.pool_jobs <= 1 || n = 1 || not Pool_backend.parallel then
    run_seq f n
  else run_parallel t f n

let map_list t f xs =
  let arr = Array.of_list xs in
  run t (fun i -> f arr.(i)) (Array.length arr) |> Array.to_list
