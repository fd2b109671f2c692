(* The global instrumentation facade.

   Instrumented code calls [with_span] / [count] / [observe]
   unconditionally; each probe starts with a single match on the
   installed-sink cell, so a build with telemetry off the hot paths
   costs nothing measurable and — because probes never touch the
   instrumented computation — produces bit-identical results.

   Timestamps are microseconds since the first use of the module,
   clamped monotonic (a wall-clock step backwards cannot produce a
   negative duration).  The installed sink, the span stack and the
   monotonic clamp live in thread-local storage (Domain.DLS on OCaml 5,
   a plain cell below), so each domain of the hypervisor worker pool
   records into its own sink without sharing a span stack; the stack
   depth is recorded on each closed span for the exporters. *)

type frame = { f_name : string; f_cat : string; f_start : float }

type state = {
  mutable current : Sink.t option;
  mutable stack : frame list;
  mutable last : float;
}

let key : state Tls.key =
  Tls.new_key (fun () -> { current = None; stack = []; last = 0.0 })

let state () = Tls.get key

let origin = Unix.gettimeofday ()

let now_us () =
  let st = state () in
  let t = (Unix.gettimeofday () -. origin) *. 1e6 in
  let t = if t < st.last then st.last else t in
  st.last <- t;
  t

let installed () = (state ()).current <> None
let current_sink () = (state ()).current

let install s =
  let st = state () in
  st.current <- Some s;
  st.stack <- []

let uninstall () =
  let st = state () in
  st.current <- None;
  st.stack <- []

let with_sink s f =
  let st = state () in
  let saved = st.current and saved_stack = st.stack in
  st.current <- Some s;
  st.stack <- [];
  Fun.protect
    ~finally:(fun () ->
      let st = state () in
      st.current <- saved;
      st.stack <- saved_stack)
    f

let span_begin ?(cat = "aitia") name =
  let st = state () in
  match st.current with
  | None -> ()
  | Some _ ->
    st.stack <- { f_name = name; f_cat = cat; f_start = now_us () } :: st.stack

let span_end ?(args = []) () =
  let st = state () in
  match (st.current, st.stack) with
  | Some s, fr :: rest ->
    st.stack <- rest;
    let stop = now_us () in
    s.Sink.on_span
      { Sink.span_name = fr.f_name;
        span_cat = fr.f_cat;
        span_depth = List.length rest;
        span_start_us = fr.f_start;
        span_dur_us = stop -. fr.f_start;
        span_args = args }
  | _ -> ()

let with_span ?cat ?args name f =
  match (state ()).current with
  | None -> f ()
  | Some _ -> (
    span_begin ?cat name;
    let args = match args with None -> [] | Some a -> a in
    match f () with
    | v ->
      span_end ~args ();
      v
    | exception e ->
      span_end ~args:(("error", Printexc.to_string e) :: args) ();
      raise e)

let count ?(by = 1) name =
  match (state ()).current with
  | None -> ()
  | Some s -> s.Sink.on_count name by

let observe name v =
  match (state ()).current with
  | None -> ()
  | Some s -> s.Sink.on_observe name v
