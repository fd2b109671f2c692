(* The kernel machine: a deterministic sequentially consistent interpreter
   over a program group.

   Two engines share one observable interface:

   - The *pure* engine below is the reference semantics: a persistent
     value, where [step] returns a new machine and a snapshot is just
     keeping the old value (this is what the AITIA hypervisor's "revert
     the memory contents of the reproducer" becomes in our substrate).

   - The *compiled* engine (module [Fast]) compiles each program once
     into a flat instruction array with integer opcodes and pre-resolved
     operands, executes in a mutable arena, and records an undo log so a
     snapshot is an O(1) mark into that log.  It must be observably
     bit-identical to the pure engine — the differential oracle in
     test/test_engine.ml holds it to that.

   A scheduler decides which thread steps next; the machine itself has no
   scheduling policy. *)

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

exception Model_error of string

let model_error fmt = Fmt.kstr (fun s -> raise (Model_error s)) fmt

type status = Runnable | Done

type thread = {
  id : int;
  name : string;
  base : string;  (* stable identity across runs: spec or entry name *)
  context : Program.context;
  program : Program.t;
  pc : int;
  regs : Value.t Smap.t;
  occ : int Smap.t;  (* label -> times executed so far *)
  status : status;
  parent : int option;
}

type pure = {
  group : Program.group;
  threads : thread Imap.t;
  mem : Value.t Addr.Map.t;
  heap : Heap.t;
  locks : int Smap.t;  (* lock id -> holder tid *)
  failure : Failure.t option;
  next_tid : int;
  clock : int;
}

type event = {
  iid : Access.Iid.t;
  instr : Instr.t;
  src : Program.loc;
  access : Access.t option;
  spawned : (int * string) list;  (* (tid, entry name) of new threads *)
  lock_op : (string * [ `Acquire | `Release ]) option;
  context : Program.context;
  thread_name : string;
}

type step_error =
  | Blocked_on_lock of string
  | Thread_not_runnable
  | Machine_failed

(* Per-PC classification bits precomputed by the compiled engine; the
   race/breakpoint/watchpoint instrumentation tests assert these against
   the reference behaviour. *)
module Flags = struct
  let read = 1
  let write = 2
  let update = 4
  let spawn = 8
  let lock = 16
  let control = 32
  let check = 64

  (* Any bit implying the step may record a shared-memory access.  Free
     is included: a successful kfree records a whole-object write. *)
  let accesses = read lor write lor update
end

(* --- construction --------------------------------------------------- *)

let make_thread ~id ~name ~base ~context ~program ~parent ~arg =
  let regs =
    match arg with None -> Smap.empty | Some v -> Smap.add "arg" v Smap.empty
  in
  { id; name; base; context; program; pc = 0; regs; occ = Smap.empty;
    status = Runnable; parent }

let create (group : Program.group) =
  let threads, next_tid =
    List.fold_left
      (fun (acc, id) (spec : Program.thread_spec) ->
        let th =
          make_thread ~id ~name:spec.Program.spec_name
            ~base:spec.Program.spec_name ~context:spec.context
            ~program:spec.program ~parent:None ~arg:None
        in
        (Imap.add id th acc, id + 1))
      (Imap.empty, 0) group.Program.threads
  in
  let mem =
    List.fold_left
      (fun m (name, v) -> Addr.Map.add (Addr.Global name) v m)
      Addr.Map.empty group.Program.globals
  in
  { group; threads; mem; heap = Heap.empty; locks = Smap.empty;
    failure = None; next_tid; clock = 0 }

(* --- inspection ----------------------------------------------------- *)

let failed t = t.failure
let thread_ids t = Imap.fold (fun id _ acc -> id :: acc) t.threads [] |> List.rev
let find_thread t tid =
  match Imap.find_opt tid t.threads with
  | Some th -> th
  | None -> model_error "no thread %d" tid

let has_thread t tid = Imap.mem tid t.threads

(* Has [tid] executed at least one instruction? *)
let has_started t tid =
  let th = find_thread t tid in
  th.pc > 0 || th.status = Done || not (Smap.is_empty th.occ)

(* How many times has [tid] executed the instruction [label] so far? *)
let occurrences t tid label =
  Option.value ~default:0 (Smap.find_opt label (find_thread t tid).occ)

(* Stable identity of a thread across runs of the same group: the
   thread-spec name for top-level threads, the entry name for spawned
   background threads. *)
let thread_base t tid = (find_thread t tid).base
let thread_context t tid = (find_thread t tid).context
let thread_parent t tid = (find_thread t tid).parent

let next_labeled t tid =
  let th = find_thread t tid in
  match th.status with
  | Done -> None
  | Runnable ->
    if th.pc >= Program.length th.program then None
    else Some (Program.get th.program th.pc)

(* A thread is done when it returned or fell off the end of its program. *)
let is_done t tid = next_labeled t tid = None

let next_label t tid =
  Option.map (fun (l : Program.labeled) -> l.label) (next_labeled t tid)

(* The lock [tid] would block on if stepped now, if any. *)
let blocked_on t tid =
  match next_labeled t tid with
  | Some { instr = Instr.Lock l; _ } -> (
    match Smap.find_opt l t.locks with
    | Some holder when holder <> tid -> Some l
    | Some _ -> Some l  (* self-deadlock: kernel spinlocks don't re-enter *)
    | None -> None)
  | Some _ | None -> None

let lock_holder t lock = Smap.find_opt lock t.locks

let runnable t =
  match t.failure with
  | Some _ -> []
  | None ->
    List.filter
      (fun tid ->
        (not (is_done t tid))
        && next_labeled t tid <> None
        && blocked_on t tid = None)
      (thread_ids t)

(* Membership in [runnable] for one thread, without building the list:
   the machine is healthy, the thread exists and has an instruction
   left, and that instruction is not a lock it would block on. *)
let can_step t tid =
  match t.failure with
  | Some _ -> false
  | None -> (
    match Imap.find_opt tid t.threads with
    | None -> false
    | Some th -> (
      th.status = Runnable
      && th.pc < Program.length th.program
      &&
      match (Program.get th.program th.pc).instr with
      | Instr.Lock l -> not (Smap.mem l t.locks)
      | _ -> true))

(* The head of [runnable]: thread ids are dense from 0. *)
let rec first_steppable t tid =
  if tid >= t.next_tid then None
  else if can_step t tid then Some tid
  else first_steppable t (tid + 1)

let first_runnable t = first_steppable t 0

(* Program positions: a thread's program never changes, so a label
   resolves to one pc per thread for the whole run. *)
let pc_of_label t tid label =
  match Program.position_of_label (find_thread t tid).program label with
  | pc -> Some pc
  | exception Program.Unknown_label _ -> None

let next_pc t tid =
  let th = find_thread t tid in
  match th.status with
  | Done -> -1
  | Runnable -> if th.pc < Program.length th.program then th.pc else -1

let occurrences_at t tid pc =
  let th = find_thread t tid in
  Option.value ~default:0
    (Smap.find_opt (Program.get th.program pc).label th.occ)

let all_done t =
  List.for_all (fun tid -> next_labeled t tid = None) (thread_ids t)

let reg t tid r = Smap.find_opt r (find_thread t tid).regs

(* Shared immutable value blocks: booleans and the zero of unwritten
   memory are by far the most constructed values, so both engines reuse
   one physical block instead of allocating per evaluation. *)
let v_true = Value.Int 1
let v_false = Value.Int 0
let v_zero = v_false

let mem_read t addr =
  match Addr.Map.find_opt addr t.mem with
  | Some v -> v
  | None -> v_zero  (* zero-initialized memory *)

(* --- expression evaluation ------------------------------------------ *)

let bool_val b = if b then v_true else v_false

let as_int label = function
  | Value.Int n -> n
  | v -> model_error "%s: expected int, got %s" label (Value.to_string v)

let rec eval regs (e : Instr.expr) : Value.t =
  let int2 op a b =
    Value.Int (op (as_int "arith" (eval regs a)) (as_int "arith" (eval regs b)))
  in
  let cmp op a b =
    bool_val (op (as_int "cmp" (eval regs a)) (as_int "cmp" (eval regs b)))
  in
  match e with
  | Const v -> v
  | Reg r -> (
    match Smap.find_opt r regs with
    | Some v -> v
    | None -> model_error "read of unset register %s" r)
  | Add (a, b) -> int2 ( + ) a b
  | Sub (a, b) -> int2 ( - ) a b
  | Mul (a, b) -> int2 ( * ) a b
  | Eq (a, b) -> bool_val (Value.equal (eval regs a) (eval regs b))
  | Ne (a, b) -> bool_val (not (Value.equal (eval regs a) (eval regs b)))
  | Lt (a, b) -> cmp ( < ) a b
  | Le (a, b) -> cmp ( <= ) a b
  | Gt (a, b) -> cmp ( > ) a b
  | Ge (a, b) -> cmp ( >= ) a b
  | And (a, b) ->
    bool_val (Value.truthy (eval regs a) && Value.truthy (eval regs b))
  | Or (a, b) ->
    bool_val (Value.truthy (eval regs a) || Value.truthy (eval regs b))
  | Not a -> bool_val (not (Value.truthy (eval regs a)))
  | Is_null a -> bool_val (Value.is_null (eval regs a))

(* Resolve an address expression.  KASAN-checks heap accesses; a bad base
   pointer resolves to a failure instead of an address. *)
let resolve t regs ~kind ~iid (a : Instr.addr_expr) :
    (Addr.t, Failure.t) result =
  match a with
  | Global g -> Ok (Addr.Global g)
  | Deref (e, field) -> (
    match eval regs e with
    | Value.Null | Value.Int 0 -> Error (Failure.Null_dereference { at = iid })
    | Value.Int _ | Value.List _ ->
      Error (Failure.General_protection_fault { at = iid })
    | Value.Ptr p -> (
      match Heap.check_access t.heap ~ptr:p ~index:None ~kind ~at:iid with
      | Some f -> Error f
      | None -> Ok (Addr.Field (p.obj, field))))
  | At (e, idx) -> (
    match eval regs e with
    | Value.Null | Value.Int 0 -> Error (Failure.Null_dereference { at = iid })
    | Value.Int _ | Value.List _ ->
      Error (Failure.General_protection_fault { at = iid })
    | Value.Ptr p ->
      let i = as_int "index" (eval regs idx) in
      (match Heap.check_access t.heap ~ptr:p ~index:(Some i) ~kind ~at:iid with
      | Some f -> Error f
      | None -> Ok (Addr.Index (p.obj, i))))

(* --- stepping -------------------------------------------------------- *)

let set_thread t th = { t with threads = Imap.add th.id th t.threads }

let advance th = { th with pc = th.pc + 1 }

let jump th target = { th with pc = Program.position_of_label th.program target }

let finish_thread th = { th with status = Done }

let spawn t ~entry ~context ~parent ~arg =
  let program = Program.find_entry t.group entry in
  let id = t.next_tid in
  let name = Fmt.str "%s.%d" entry id in
  let th =
    make_thread ~id ~name ~base:entry ~context ~program ~parent:(Some parent)
      ~arg
  in
  ({ t with threads = Imap.add id th t.threads; next_tid = id + 1 }, id)

let no_event iid instr src (th : thread) t =
  { iid; instr; src; access = None; spawned = []; lock_op = None;
    context = th.context; thread_name = th.name }
  |> fun e -> (t, e)

(* Execute one instruction of [tid].  On failure manifestation the machine
   records the failure and the faulting event is still returned (the
   access that crashed did happen — it is typically one end of the racing
   pair AITIA reasons about). *)
let step t tid : (pure * event, step_error) result =
  match t.failure with
  | Some _ -> Error Machine_failed
  | None -> (
    let th = find_thread t tid in
    match th.status with
    | Done -> Error Thread_not_runnable
    | Runnable ->
      if th.pc >= Program.length th.program then Error Thread_not_runnable
      else (
        let { Program.label; instr; src } = Program.get th.program th.pc in
        let occ = (Option.value ~default:0 (Smap.find_opt label th.occ)) + 1 in
        let iid = Access.Iid.make ~tid ~label ~occ in
        let th = { th with occ = Smap.add label occ th.occ } in
        let t = { t with clock = t.clock + 1 } in
        let held =
          Smap.fold
            (fun l holder acc -> if holder = tid then l :: acc else acc)
            t.locks []
        in
        let mk_access addr kind =
          Some { Access.iid; addr; kind; time = t.clock; held }
        in
        let fail t f = { t with failure = Some f } in
        let base_event =
          { iid; instr; src; access = None; spawned = []; lock_op = None;
            context = th.context; thread_name = th.name }
        in
        let store_result ~addr ~kind t' th' =
          (set_thread t' (advance th'), { base_event with access = mk_access addr kind })
        in
        (* The access a faulting instruction was attempting, when its base
           pointer is known: KASAN reports it, and it is usually one end
           of the racing pair AITIA reasons about. *)
        let attempted_access (a : Instr.addr_expr) kind =
          match a with
          | Instr.Deref (e, f') -> (
            match eval th.regs e with
            | Value.Ptr p -> mk_access (Addr.Field (p.obj, f')) kind
            | Value.Int _ | Value.Null | Value.List _ -> None)
          | Instr.At (e, idx) -> (
            match eval th.regs e with
            | Value.Ptr p -> (
              match eval th.regs idx with
              | Value.Int i -> mk_access (Addr.Index (p.obj, i)) kind
              | Value.Ptr _ | Value.Null | Value.List _ -> None)
            | Value.Int _ | Value.Null | Value.List _ -> None)
          | Instr.Global gname -> mk_access (Addr.Global gname) kind
        in
        match instr with
        | Instr.Nop -> Ok (no_event iid instr src th (set_thread t (advance th)))
        | Instr.Assign { dst; src = e } ->
          let v = eval th.regs e in
          let th = advance { th with regs = Smap.add dst v th.regs } in
          Ok (no_event iid instr src th (set_thread t th))
        | Instr.Branch_if { cond; target } ->
          let th =
            if Value.truthy (eval th.regs cond) then jump th target
            else advance th
          in
          Ok (no_event iid instr src th (set_thread t th))
        | Instr.Goto target ->
          let th = jump th target in
          Ok (no_event iid instr src th (set_thread t th))
        | Instr.Return ->
          let th = finish_thread th in
          Ok (no_event iid instr src th (set_thread t th))
        | Instr.Load { dst; src = a } -> (
          match resolve t th.regs ~kind:Instr.Read ~iid a with
          | Error f ->
            Ok (fail t f, { base_event with access = attempted_access a Instr.Read })
          | Ok addr ->
            let v = mem_read t addr in
            let th = { th with regs = Smap.add dst v th.regs } in
            Ok (store_result ~addr ~kind:Instr.Read t th))
        | Instr.Store { dst = a; src = e } -> (
          match resolve t th.regs ~kind:Instr.Write ~iid a with
          | Error f ->
            Ok (fail t f, { base_event with access = attempted_access a Instr.Write })
          | Ok addr ->
            let v = eval th.regs e in
            let t = { t with mem = Addr.Map.add addr v t.mem } in
            Ok (store_result ~addr ~kind:Instr.Write t th))
        | Instr.Rmw { ret; loc; delta } -> (
          match resolve t th.regs ~kind:Instr.Update ~iid loc with
          | Error f ->
            Ok (fail t f, { base_event with access = attempted_access loc Instr.Update })
          | Ok addr ->
            let old = as_int "rmw" (mem_read t addr) in
            let d = as_int "rmw delta" (eval th.regs delta) in
            let t = { t with mem = Addr.Map.add addr (Value.Int (old + d)) t.mem } in
            let th =
              match ret with
              | Some r -> { th with regs = Smap.add r (Value.Int old) th.regs }
              | None -> th
            in
            Ok (store_result ~addr ~kind:Instr.Update t th))
        | Instr.Alloc { dst; tag; fields; slots; leak_check } ->
          let heap, obj = Heap.alloc t.heap ~tag ~slots ~leak_check ~at:iid in
          let mem =
            List.fold_left
              (fun m (f, e) -> Addr.Map.add (Addr.Field (obj, f)) (eval th.regs e) m)
              t.mem fields
          in
          let v = Value.ptr ~obj ~gen:0 in
          let th = advance { th with regs = Smap.add dst v th.regs } in
          Ok (no_event iid instr src th (set_thread { t with heap; mem } th))
        | Instr.Free { ptr } -> (
          match eval th.regs ptr with
          | Value.Null | Value.Int 0 ->
            (* kfree(NULL) is a no-op in the kernel. *)
            Ok (no_event iid instr src th (set_thread t (advance th)))
          | Value.Int _ | Value.List _ ->
            Ok (fail t (Failure.Invalid_free { at = iid }), base_event)
          | Value.Ptr p -> (
            match Heap.free t.heap ~ptr:p ~at:iid with
            | Error f ->
              let access = mk_access (Addr.Whole p.obj) Instr.Write in
              Ok (fail t f, { base_event with access })
            | Ok heap ->
              let t = { t with heap } in
              Ok (store_result ~addr:(Addr.Whole p.obj) ~kind:Instr.Write t th)))
        | Instr.Lock l -> (
          match Smap.find_opt l t.locks with
          | Some _ -> Error (Blocked_on_lock l)
          | None ->
            let t = { t with locks = Smap.add l tid t.locks } in
            let th = advance th in
            Ok
              ( set_thread t th,
                { base_event with lock_op = Some (l, `Acquire) } ))
        | Instr.Unlock l -> (
          match Smap.find_opt l t.locks with
          | Some holder when holder = tid ->
            let t = { t with locks = Smap.remove l t.locks } in
            let th = advance th in
            Ok
              ( set_thread t th,
                { base_event with lock_op = Some (l, `Release) } )
          | Some _ | None ->
            model_error "thread %d unlocks %s it does not hold" tid l)
        | Instr.Queue_work { entry; arg } ->
          let arg = eval th.regs arg in
          let t, id =
            spawn t ~entry ~context:Program.Kworker ~parent:tid ~arg:(Some arg)
          in
          let th = advance th in
          Ok (set_thread t th, { base_event with spawned = [ (id, entry) ] })
        | Instr.Call_rcu { entry; arg } ->
          let arg = eval th.regs arg in
          let t, id =
            spawn t ~entry ~context:Program.Rcu_softirq ~parent:tid
              ~arg:(Some arg)
          in
          let th = advance th in
          Ok (set_thread t th, { base_event with spawned = [ (id, entry) ] })
        | Instr.Arm_timer { entry; arg } ->
          let arg = eval th.regs arg in
          let t, id =
            spawn t ~entry ~context:Program.Timer_softirq ~parent:tid
              ~arg:(Some arg)
          in
          let th = advance th in
          Ok (set_thread t th, { base_event with spawned = [ (id, entry) ] })
        | Instr.Enable_irq { entry; arg } ->
          let arg = eval th.regs arg in
          let t, id =
            spawn t ~entry ~context:Program.Hardirq ~parent:tid
              ~arg:(Some arg)
          in
          let th = advance th in
          Ok (set_thread t th, { base_event with spawned = [ (id, entry) ] })
        | Instr.Bug_on e ->
          if Value.truthy (eval th.regs e) then
            Ok (fail t (Failure.Assertion_violation { at = iid }), base_event)
          else Ok (no_event iid instr src th (set_thread t (advance th)))
        | Instr.Warn_on e ->
          if Value.truthy (eval th.regs e) then
            Ok (fail t (Failure.Warning { at = iid }), base_event)
          else Ok (no_event iid instr src th (set_thread t (advance th)))
        | Instr.List_add { list; item } -> (
          match resolve t th.regs ~kind:Instr.Write ~iid list with
          | Error f -> Ok (fail t f, base_event)
          | Ok addr -> (
            match eval th.regs item with
            | Value.Ptr p -> (
              let cur =
                match mem_read t addr with
                | Value.List ps -> ps
                | Value.Int 0 | Value.Null -> []
                | v ->
                  model_error "list_add on non-list value %s" (Value.to_string v)
              in
              if List.exists (fun q -> Value.ptr_equal p q) cur then
                let f =
                  Failure.List_corruption
                    { at = iid; reason = "double list_add of the same entry" }
                in
                Ok (fail t f, { base_event with access = mk_access addr Instr.Write })
              else
                let t =
                  { t with mem = Addr.Map.add addr (Value.List (p :: cur)) t.mem }
                in
                Ok (store_result ~addr ~kind:Instr.Write t th))
            | v -> model_error "list_add of non-pointer %s" (Value.to_string v)))
        | Instr.List_del { list; item } -> (
          match resolve t th.regs ~kind:Instr.Write ~iid list with
          | Error f -> Ok (fail t f, base_event)
          | Ok addr -> (
            match eval th.regs item with
            | Value.Ptr p -> (
              let cur =
                match mem_read t addr with
                | Value.List ps -> ps
                | Value.Int 0 | Value.Null -> []
                | v ->
                  model_error "list_del on non-list value %s" (Value.to_string v)
              in
              if not (List.exists (fun q -> Value.ptr_equal p q) cur) then
                let f =
                  Failure.List_corruption
                    { at = iid; reason = "list_del of entry not on the list" }
                in
                Ok (fail t f, { base_event with access = mk_access addr Instr.Write })
              else
                let cur' =
                  List.filter (fun q -> not (Value.ptr_equal p q)) cur
                in
                let t =
                  { t with mem = Addr.Map.add addr (Value.List cur') t.mem }
                in
                Ok (store_result ~addr ~kind:Instr.Write t th))
            | v -> model_error "list_del of non-pointer %s" (Value.to_string v)))
        | Instr.List_contains { dst; list; item } -> (
          match resolve t th.regs ~kind:Instr.Read ~iid list with
          | Error f -> Ok (fail t f, base_event)
          | Ok addr ->
            let cur =
              match mem_read t addr with
              | Value.List ps -> ps
              | _ -> []
            in
            let present =
              match eval th.regs item with
              | Value.Ptr p -> List.exists (fun q -> Value.ptr_equal p q) cur
              | _ -> false
            in
            let th = { th with regs = Smap.add dst (bool_val present) th.regs } in
            Ok (store_result ~addr ~kind:Instr.Read t th))
        | Instr.List_empty { dst; list } -> (
          match resolve t th.regs ~kind:Instr.Read ~iid list with
          | Error f -> Ok (fail t f, base_event)
          | Ok addr ->
            let empty =
              match mem_read t addr with
              | Value.List (_ :: _) -> false
              | Value.List [] | _ -> true
            in
            let th = { th with regs = Smap.add dst (bool_val empty) th.regs } in
            Ok (store_result ~addr ~kind:Instr.Read t th))
        | Instr.List_first { dst; list } -> (
          match resolve t th.regs ~kind:Instr.Read ~iid list with
          | Error f -> Ok (fail t f, base_event)
          | Ok addr ->
            let v =
              match mem_read t addr with
              | Value.List (p :: _) -> Value.Ptr p
              | Value.List [] | _ -> Value.Null
            in
            let th = { th with regs = Smap.add dst v th.regs } in
            Ok (store_result ~addr ~kind:Instr.Read t th))
        | Instr.Ref_get { loc } -> (
          match resolve t th.regs ~kind:Instr.Update ~iid loc with
          | Error f ->
            Ok (fail t f, { base_event with access = attempted_access loc Instr.Update })
          | Ok addr ->
            let old = as_int "refcount" (mem_read t addr) in
            if old <= 0 then
              (* refcount_inc on zero: object already dying. *)
              Ok (fail t (Failure.Warning { at = iid }),
                  { base_event with access = mk_access addr Instr.Update })
            else
              let t =
                { t with mem = Addr.Map.add addr (Value.Int (old + 1)) t.mem }
              in
              Ok (store_result ~addr ~kind:Instr.Update t th))
        | Instr.Ref_put { ret; loc } -> (
          match resolve t th.regs ~kind:Instr.Update ~iid loc with
          | Error f ->
            Ok (fail t f, { base_event with access = attempted_access loc Instr.Update })
          | Ok addr ->
            let old = as_int "refcount" (mem_read t addr) in
            if old <= 0 then
              (* refcount underflow: WARNING, as the kernel's refcount_t. *)
              Ok (fail t (Failure.Warning { at = iid }),
                  { base_event with access = mk_access addr Instr.Update })
            else
              let t =
                { t with mem = Addr.Map.add addr (Value.Int (old - 1)) t.mem }
              in
              let th =
                match ret with
                | Some r ->
                  { th with regs = Smap.add r (Value.Int (old - 1)) th.regs }
                | None -> th
              in
              Ok (store_result ~addr ~kind:Instr.Update t th))))

(* End-of-run leak detection: once every thread has finished, objects
   flagged [leak_check] that were never freed constitute a memory leak. *)
let check_leaks t =
  match t.failure with
  | Some _ -> t
  | None ->
    if not (all_done t) then t
    else (
      match Heap.leaked t.heap with
      | [] -> t
      | objs -> { t with failure = Some (Failure.Memory_leak { objs }) })

(* --- fingerprinting -------------------------------------------------- *)

(* Canonical digest of the complete machine state.  Every component is
   rendered through an order-canonical traversal (maps fold in key
   order), so two machines that are structurally equal produce the same
   digest regardless of how their persistent maps were built.  Used by
   the differential tests to assert that both engines reach identical
   states. *)
let fingerprint t =
  let b = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  add "clock=%d;next_tid=%d;" t.clock t.next_tid;
  (match t.failure with
  | None -> add "ok;"
  | Some f -> add "failure=%s;" (Failure.to_string f));
  Smap.iter (fun l holder -> add "lock:%s=%d;" l holder) t.locks;
  Imap.iter
    (fun id th ->
      add "thread:%d name=%s base=%s ctx=%a pc=%d status=%s parent=%s;" id
        th.name th.base Program.pp_context th.context th.pc
        (match th.status with Runnable -> "runnable" | Done -> "done")
        (match th.parent with None -> "-" | Some p -> string_of_int p);
      Smap.iter (fun r v -> add "reg:%s=%s;" r (Value.to_string v)) th.regs;
      Smap.iter (fun l n -> add "occ:%s=%d;" l n) th.occ)
    t.threads;
  Addr.Map.iter
    (fun addr v -> add "mem:%s=%s;" (Addr.to_string addr) (Value.to_string v))
    t.mem;
  Heap.fold
    (fun id (o : Heap.obj) () ->
      add "obj:%d tag=%s gen=%d state=%s slots=%d leak=%b at=%s;" id o.tag
        o.gen
        (match o.state with
        | Heap.Live -> "live"
        | Heap.Freed at -> "freed@" ^ Access.Iid.to_string at)
        o.slots o.leak_check
        (Access.Iid.to_string o.alloc_at))
    t.heap ();
  add "heap_next=%d" (Heap.next_id t.heap);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ===================================================================== *)
(* The compiled engine.

   [compile_program] lowers a [Program.t] once into a flat array of
   integer-indexed instructions: register names become dense slots,
   branch targets become pcs (labels are validated unique and resolvable
   by [Program.make]), global address expressions become preallocated
   [Addr.t] values, and every pc carries a classification bitset
   ([Flags]) so the step loop can skip the lock-held computation for
   instructions that can never record an access.

   Execution mutates an *arena* — flat arrays and a hashtable instead of
   persistent maps — while appending inverse operations to an undo log.
   A machine value over this engine is a [handle]: the arena plus a mark
   into the undo log.  Exactly one handle (the arena's [ar_current]) is
   positioned at the arena's tip and may step in place; stepping or
   inspecting any other handle first clones the arena and rewinds the
   clone's undo suffix back to the handle's mark, reproducing that
   state. *)

module Fast = struct
  type cexpr =
    | C_const of Value.t
    | C_reg of int * string  (* slot, name (kept for error parity) *)
    | C_add of cexpr * cexpr
    | C_sub of cexpr * cexpr
    | C_mul of cexpr * cexpr
    | C_eq of cexpr * cexpr
    | C_ne of cexpr * cexpr
    | C_lt of cexpr * cexpr
    | C_le of cexpr * cexpr
    | C_gt of cexpr * cexpr
    | C_ge of cexpr * cexpr
    | C_and of cexpr * cexpr
    | C_or of cexpr * cexpr
    | C_not of cexpr
    | C_is_null of cexpr

  type caddr =
    | Ca_global of int * Addr.t
        (* slot into the arena's flat global array + the preallocated
           address the access event carries *)
    | Ca_deref of cexpr * int * string
        (* base, interned field slot, field name (for access events) *)
    | Ca_at of cexpr * cexpr

  type cop =
    | O_nop
    | O_assign of int * cexpr
    | O_branch_if of cexpr * int  (* target pre-resolved to a pc *)
    | O_goto of int
    | O_return
    | O_load of int * caddr
    | O_store of caddr * cexpr
    | O_rmw of int option * caddr * cexpr
    | O_alloc of {
        al_dst : int;
        al_tag : string;
        al_fields : (int * cexpr) list;  (* interned field slot, value *)
        al_slots : int;
        al_leak : bool;
      }
    | O_free of cexpr
    | O_lock of string
    | O_unlock of string
    | O_spawn of { sp_entry : string; sp_arg : cexpr; sp_ctx : Program.context }
    | O_bug_on of cexpr
    | O_warn_on of cexpr
    | O_list_add of caddr * cexpr
    | O_list_del of caddr * cexpr
    | O_list_contains of int * caddr * cexpr
    | O_list_empty of int * caddr
    | O_list_first of int * caddr
    | O_ref_get of caddr
    | O_ref_put of int option * caddr

  type cinstr = {
    ci_label : string;
    ci_instr : Instr.t;  (* original, shared into events *)
    ci_src : Program.loc;
    ci_op : cop;
    ci_flags : int;
    ci_globals : string list;  (* globals statically addressed here *)
  }

  type cprog = {
    c_source : Program.t;
    c_code : cinstr array;
    c_nslots : int;
    c_slots : (string, int) Hashtbl.t;  (* register name -> slot *)
    c_regs : string array;              (* slot -> register name *)
  }

  (* --- classification bitsets --------------------------------------- *)

  let flags_of (i : Instr.t) =
    let acc =
      match Instr.access_kind i with
      | Some Instr.Read -> Flags.read
      | Some Instr.Write -> Flags.write
      | Some Instr.Update -> Flags.update
      | None -> (
        (* A successful kfree records a whole-object write access. *)
        match i with Instr.Free _ -> Flags.write | _ -> 0)
    in
    let extra =
      match i with
      | Instr.Queue_work _ | Instr.Call_rcu _ | Instr.Arm_timer _
      | Instr.Enable_irq _ -> Flags.spawn
      | Instr.Lock _ | Instr.Unlock _ -> Flags.lock
      | Instr.Branch_if _ | Instr.Goto _ | Instr.Return -> Flags.control
      | Instr.Bug_on _ | Instr.Warn_on _ -> Flags.check
      | _ -> 0
    in
    acc lor extra

  let addr_globals = function
    | Instr.Global g -> [ g ]
    | Instr.Deref _ | Instr.At _ -> []

  (* The global variables an instruction may address directly — the
     static watchpoint set.  Heap accesses (Deref/At) never resolve to a
     global, so for globals this set is exact, never a false negative. *)
  let globals_of (i : Instr.t) =
    match i with
    | Instr.Load { src = a; _ } | Instr.Store { dst = a; _ }
    | Instr.Rmw { loc = a; _ } | Instr.Ref_get { loc = a }
    | Instr.Ref_put { loc = a; _ } | Instr.List_add { list = a; _ }
    | Instr.List_del { list = a; _ } | Instr.List_contains { list = a; _ }
    | Instr.List_empty { list = a; _ } | Instr.List_first { list = a; _ } ->
      addr_globals a
    | _ -> []

  (* --- compilation --------------------------------------------------- *)

  let compile_program ~(gslot : string -> int) ~(fslot : string -> int)
      (p : Program.t) : cprog =
    let slots : (string, int) Hashtbl.t = Hashtbl.create 8 in
    (* Slot 0 is always "arg", the register spawned threads receive. *)
    Hashtbl.add slots "arg" 0;
    let names = ref [ "arg" ] in
    let nslots = ref 1 in
    let slot_of r =
      match Hashtbl.find_opt slots r with
      | Some s -> s
      | None ->
        let s = !nslots in
        Hashtbl.add slots r s;
        names := r :: !names;
        incr nslots;
        s
    in
    let rec cexpr (e : Instr.expr) : cexpr =
      match e with
      | Instr.Const v -> C_const v
      | Instr.Reg r -> C_reg (slot_of r, r)
      | Instr.Add (a, b) -> C_add (cexpr a, cexpr b)
      | Instr.Sub (a, b) -> C_sub (cexpr a, cexpr b)
      | Instr.Mul (a, b) -> C_mul (cexpr a, cexpr b)
      | Instr.Eq (a, b) -> C_eq (cexpr a, cexpr b)
      | Instr.Ne (a, b) -> C_ne (cexpr a, cexpr b)
      | Instr.Lt (a, b) -> C_lt (cexpr a, cexpr b)
      | Instr.Le (a, b) -> C_le (cexpr a, cexpr b)
      | Instr.Gt (a, b) -> C_gt (cexpr a, cexpr b)
      | Instr.Ge (a, b) -> C_ge (cexpr a, cexpr b)
      | Instr.And (a, b) -> C_and (cexpr a, cexpr b)
      | Instr.Or (a, b) -> C_or (cexpr a, cexpr b)
      | Instr.Not a -> C_not (cexpr a)
      | Instr.Is_null a -> C_is_null (cexpr a)
    in
    let caddr (a : Instr.addr_expr) : caddr =
      match a with
      | Instr.Global g -> Ca_global (gslot g, Addr.Global g)
      | Instr.Deref (e, f) -> Ca_deref (cexpr e, fslot f, f)
      | Instr.At (e, i) -> Ca_at (cexpr e, cexpr i)
    in
    let cop (i : Instr.t) : cop =
      match i with
      | Instr.Nop -> O_nop
      | Instr.Assign { dst; src } -> O_assign (slot_of dst, cexpr src)
      | Instr.Branch_if { cond; target } ->
        O_branch_if (cexpr cond, Program.position_of_label p target)
      | Instr.Goto target -> O_goto (Program.position_of_label p target)
      | Instr.Return -> O_return
      | Instr.Load { dst; src } -> O_load (slot_of dst, caddr src)
      | Instr.Store { dst; src } -> O_store (caddr dst, cexpr src)
      | Instr.Rmw { ret; loc; delta } ->
        O_rmw (Option.map slot_of ret, caddr loc, cexpr delta)
      | Instr.Alloc { dst; tag; fields; slots = al_slots; leak_check } ->
        O_alloc
          { al_dst = slot_of dst; al_tag = tag;
            al_fields = List.map (fun (f, e) -> (fslot f, cexpr e)) fields;
            al_slots; al_leak = leak_check }
      | Instr.Free { ptr } -> O_free (cexpr ptr)
      | Instr.Lock l -> O_lock l
      | Instr.Unlock l -> O_unlock l
      | Instr.Queue_work { entry; arg } ->
        O_spawn { sp_entry = entry; sp_arg = cexpr arg; sp_ctx = Program.Kworker }
      | Instr.Call_rcu { entry; arg } ->
        O_spawn
          { sp_entry = entry; sp_arg = cexpr arg; sp_ctx = Program.Rcu_softirq }
      | Instr.Arm_timer { entry; arg } ->
        O_spawn
          { sp_entry = entry; sp_arg = cexpr arg;
            sp_ctx = Program.Timer_softirq }
      | Instr.Enable_irq { entry; arg } ->
        O_spawn { sp_entry = entry; sp_arg = cexpr arg; sp_ctx = Program.Hardirq }
      | Instr.Bug_on e -> O_bug_on (cexpr e)
      | Instr.Warn_on e -> O_warn_on (cexpr e)
      | Instr.List_add { list; item } -> O_list_add (caddr list, cexpr item)
      | Instr.List_del { list; item } -> O_list_del (caddr list, cexpr item)
      | Instr.List_contains { dst; list; item } ->
        O_list_contains (slot_of dst, caddr list, cexpr item)
      | Instr.List_empty { dst; list } -> O_list_empty (slot_of dst, caddr list)
      | Instr.List_first { dst; list } -> O_list_first (slot_of dst, caddr list)
      | Instr.Ref_get { loc } -> O_ref_get (caddr loc)
      | Instr.Ref_put { ret; loc } -> O_ref_put (Option.map slot_of ret, caddr loc)
    in
    let code =
      Array.init (Program.length p) (fun i ->
          let l = Program.get p i in
          { ci_label = l.Program.label; ci_instr = l.Program.instr;
            ci_src = l.Program.src; ci_op = cop l.Program.instr;
            ci_flags = flags_of l.Program.instr;
            ci_globals = globals_of l.Program.instr })
    in
    { c_source = p; c_code = code; c_nslots = !nslots; c_slots = slots;
      c_regs = Array.of_list (List.rev !names) }

  type cgroup = {
    cg_source : Program.group;
    cg_top : cprog array;               (* one per top-level thread spec *)
    cg_progs : (Program.t * cprog) list;  (* keyed by physical identity *)
    cg_gtbl : (string, int) Hashtbl.t;  (* global name -> arena slot *)
    cg_gnames : string array;           (* arena slot -> global name *)
    cg_ftbl : (string, int) Hashtbl.t;  (* field name -> object slot *)
    cg_fnames : string array;           (* object slot -> field name *)
  }

  (* Global variables are resolved to dense arena slots at compile time:
     the group's initializer list claims slots first, then every global
     any program of the group addresses.  The step loop then reads and
     writes a flat array — no hashing on the hot path. *)
  let compile_group (g : Program.group) : cgroup =
    let gtbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let gnames = ref [] in
    let gn = ref 0 in
    let gslot name =
      match Hashtbl.find_opt gtbl name with
      | Some s -> s
      | None ->
        let s = !gn in
        Hashtbl.add gtbl name s;
        gnames := name :: !gnames;
        incr gn;
        s
    in
    List.iter (fun (name, _) -> ignore (gslot name)) g.Program.globals;
    (* Field names get the same dense-slot treatment: every field any
       program of the group dereferences or initializes at alloc time
       becomes an index into each object's flat value array. *)
    let ftbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let fnames = ref [] in
    let fn = ref 0 in
    let fslot name =
      match Hashtbl.find_opt ftbl name with
      | Some s -> s
      | None ->
        let s = !fn in
        Hashtbl.add ftbl name s;
        fnames := name :: !fnames;
        incr fn;
        s
    in
    let progs = ref [] in
    let compiled p =
      match List.assq_opt p !progs with
      | Some cp -> cp
      | None ->
        let cp = compile_program ~gslot ~fslot p in
        progs := (p, cp) :: !progs;
        cp
    in
    let cg_top =
      Array.of_list
        (List.map
           (fun (s : Program.thread_spec) -> compiled s.Program.program)
           g.Program.threads)
    in
    List.iter (fun (_, p) -> ignore (compiled p)) g.Program.entries;
    { cg_source = g; cg_top; cg_progs = !progs; cg_gtbl = gtbl;
      cg_gnames = Array.of_list (List.rev !gnames); cg_ftbl = ftbl;
      cg_fnames = Array.of_list (List.rev !fnames) }

  (* LIFS boots thousands of machines per group; compiling on every boot
     would eat the speedup.  A small bounded cache keyed by the group's
     physical identity (groups are immutable literals) makes compilation
     once-per-group.  Atomic CAS keeps it safe under OCaml 5 domains. *)
  let group_cache : (Program.group * cgroup) list Atomic.t = Atomic.make []
  let max_cached_groups = 32

  let cgroup_of (g : Program.group) : cgroup =
    match List.assq_opt g (Atomic.get group_cache) with
    | Some cg -> cg
    | None ->
      let cg = compile_group g in
      let rec publish () =
        let cur = Atomic.get group_cache in
        match List.assq_opt g cur with
        | Some cg' -> cg'
        | None ->
          let cur' =
            if List.length cur >= max_cached_groups then
              List.filteri (fun i _ -> i < max_cached_groups - 1) cur
            else cur
          in
          if Atomic.compare_and_set group_cache cur ((g, cg) :: cur') then cg
          else publish ()
      in
      publish ()

  (* --- the arena ------------------------------------------------------ *)

  type athread = {
    a_id : int;
    a_name : string;
    a_base : string;
    a_context : Program.context;
    a_prog : cprog;
    mutable a_pc : int;
    mutable a_done : bool;
    a_regs : Value.t option array;  (* slot -> value *)
    a_occ : int array;              (* pc -> times executed *)
    a_parent : int option;
  }

  type undo =
    | U_step of int * int
        (* tid, old pc — one entry for a whole retired step: undoes the
           pc advance, the occurrence bump at the old pc and the clock
           tick, which every successful step performs together *)
    | U_step_done of int
        (* tid retired a Return: un-done it, occ/clock as U_step *)
    | U_reg of int * int * Value.t option  (* tid, slot, old value *)
    | U_global of int * Value.t option     (* global slot, old value *)
    | U_fmem of int * int * Value.t   (* obj, field slot, old value *)
    | U_imem of int * int * Value.t   (* obj, index, old value *)
    | U_locks of (string * int) list       (* old lock list *)
    | U_heap_set of int * Heap.obj         (* old object record *)
    | U_heap_alloc                         (* pop the newest object *)
    | U_spawn                              (* pop the newest thread *)
    | U_failure of Failure.t option
    | U_clock of int

  (* Distinguished "absent binding" marker for the per-object value
     arrays; compared physically.  [Sys.opaque_identity] guarantees a
     unique block that no program-constant [List []] value can alias. *)
  let v_unbound : Value.t = Value.List (Sys.opaque_identity [])

  type arena = {
    ar_cg : cgroup;
    mutable ar_threads : athread array;  (* slots [0, ar_nthreads) live *)
    mutable ar_nthreads : int;
    ar_globals : Value.t option array;   (* global slot -> binding *)
    mutable ar_objs : Heap.obj array;    (* slots [0, ar_nobjs) live *)
    mutable ar_fvals : Value.t array array;
        (* obj -> field slot -> value; [v_unbound] marks absent bindings
           so heap reads and writes never hash — parallel to [ar_objs] *)
    mutable ar_ivals : Value.t array array;
        (* obj -> array index -> value, sized by the object's slot
           count at allocation; indices are bounds-checked by
           [fcheck_access] before any load or store *)
    mutable ar_nobjs : int;
    mutable ar_locks : (string * int) list;  (* sorted ascending by name *)
    mutable ar_failure : Failure.t option;
    mutable ar_clock : int;
    mutable ar_undo : undo array array;
        (* chunked log: spine of 128-entry chunks.  Chunks stay under
           the minor-heap allocation limit and never move once filled,
           so a long run costs no major-heap array churn and no
           doubling blits; the spine itself is 1/128th the size. *)
    mutable ar_undo_n : int;  (* total entries across all chunks *)
    mutable ar_current : handle option;  (* the handle at the tip, if any *)
  }

  and handle = {
    h_arena : arena;
    h_mark : int;  (* undo-log length at this state *)
    (* Cached tip facts so non-tip handles answer the hot inspection
       queries without touching the arena state. *)
    h_nthreads : int;
    h_failure : Failure.t option;
    h_clock : int;
  }

  let is_current h =
    match h.h_arena.ar_current with Some h' -> h' == h | None -> false

  (* --- undo log ------------------------------------------------------- *)

  let undo_chunk_bits = 7
  let undo_chunk_size = 1 lsl undo_chunk_bits
  let undo_chunk_mask = undo_chunk_size - 1

  let push_undo ar u =
    let n = ar.ar_undo_n in
    let ci = n lsr undo_chunk_bits in
    let spine = ar.ar_undo in
    let spine =
      if ci < Array.length spine then spine
      else begin
        let spine' = Array.make (max 8 (2 * Array.length spine)) [||] in
        Array.blit spine 0 spine' 0 (Array.length spine);
        ar.ar_undo <- spine';
        spine'
      end
    in
    let chunk = spine.(ci) in
    let chunk =
      if Array.length chunk > 0 then chunk
      else begin
        let c = Array.make undo_chunk_size u in
        spine.(ci) <- c;
        c
      end
    in
    chunk.(n land undo_chunk_mask) <- u;
    ar.ar_undo_n <- n + 1

  let undo_get ar i = ar.ar_undo.(i lsr undo_chunk_bits).(i land undo_chunk_mask)

  let set_reg ar th slot v =
    push_undo ar (U_reg (th.a_id, slot, th.a_regs.(slot)));
    th.a_regs.(slot) <- Some v

  let write_global ar slot v =
    push_undo ar (U_global (slot, ar.ar_globals.(slot)));
    ar.ar_globals.(slot) <- Some v

  let read_global ar slot =
    match ar.ar_globals.(slot) with Some v -> v | None -> v_zero

  (* Heap storage: flat per-object arrays, no hashing.  Object ids and
     field slots are validated by [fcheck_access] / compilation before
     these run; array indices by [fcheck_access] against the object's
     slot count. *)
  let write_field ar obj fslot v =
    let fv = ar.ar_fvals.(obj) in
    push_undo ar (U_fmem (obj, fslot, fv.(fslot)));
    fv.(fslot) <- v

  let read_field ar obj fslot =
    let v = ar.ar_fvals.(obj).(fslot) in
    if v == v_unbound then v_zero else v

  let write_idx ar obj i v =
    let iv = ar.ar_ivals.(obj) in
    push_undo ar (U_imem (obj, i, iv.(i)));
    iv.(i) <- v

  let read_idx ar obj i =
    let v = ar.ar_ivals.(obj).(i) in
    if v == v_unbound then v_zero else v

  let set_locks ar locks =
    push_undo ar (U_locks ar.ar_locks);
    ar.ar_locks <- locks

  let set_failure ar f =
    push_undo ar (U_failure ar.ar_failure);
    ar.ar_failure <- Some f

  let bump_clock ar =
    push_undo ar (U_clock ar.ar_clock);
    ar.ar_clock <- ar.ar_clock + 1

  let set_obj ar id o =
    push_undo ar (U_heap_set (id, ar.ar_objs.(id)));
    ar.ar_objs.(id) <- o

  let find_obj ar id =
    if id >= 0 && id < ar.ar_nobjs then Some ar.ar_objs.(id) else None

  let push_obj ar (o : Heap.obj) =
    let n = ar.ar_nobjs in
    if n >= Array.length ar.ar_objs then begin
      let cap = max 8 (2 * Array.length ar.ar_objs) in
      let a = Array.make cap o in
      Array.blit ar.ar_objs 0 a 0 n;
      ar.ar_objs <- a;
      let fa = Array.make cap [||] in
      Array.blit ar.ar_fvals 0 fa 0 n;
      ar.ar_fvals <- fa;
      let ia = Array.make cap [||] in
      Array.blit ar.ar_ivals 0 ia 0 n;
      ar.ar_ivals <- ia
    end;
    ar.ar_objs.(n) <- o;
    (* Fresh value arrays: a popped-and-reallocated slot must not see
       stale bindings from the previous incarnation. *)
    ar.ar_fvals.(n) <- Array.make (Array.length ar.ar_cg.cg_fnames) v_unbound;
    ar.ar_ivals.(n) <- Array.make o.Heap.slots v_unbound;
    ar.ar_nobjs <- n + 1

  let push_thread ar th =
    let n = ar.ar_nthreads in
    if n >= Array.length ar.ar_threads then begin
      let cap = max 4 (2 * Array.length ar.ar_threads) in
      let a = Array.make cap th in
      Array.blit ar.ar_threads 0 a 0 n;
      ar.ar_threads <- a
    end;
    ar.ar_threads.(n) <- th;
    ar.ar_nthreads <- n + 1

  let apply_undo ar = function
    | U_step (tid, old_pc) ->
      let th = ar.ar_threads.(tid) in
      th.a_occ.(old_pc) <- th.a_occ.(old_pc) - 1;
      th.a_pc <- old_pc;
      ar.ar_clock <- ar.ar_clock - 1
    | U_step_done tid ->
      let th = ar.ar_threads.(tid) in
      th.a_done <- false;
      th.a_occ.(th.a_pc) <- th.a_occ.(th.a_pc) - 1;
      ar.ar_clock <- ar.ar_clock - 1
    | U_reg (tid, slot, old) -> ar.ar_threads.(tid).a_regs.(slot) <- old
    | U_global (slot, old) -> ar.ar_globals.(slot) <- old
    | U_fmem (obj, fslot, v) -> ar.ar_fvals.(obj).(fslot) <- v
    | U_imem (obj, i, v) -> ar.ar_ivals.(obj).(i) <- v
    | U_locks old -> ar.ar_locks <- old
    | U_heap_set (id, old) -> ar.ar_objs.(id) <- old
    | U_heap_alloc -> ar.ar_nobjs <- ar.ar_nobjs - 1
    | U_spawn -> ar.ar_nthreads <- ar.ar_nthreads - 1
    | U_failure old -> ar.ar_failure <- old
    | U_clock old -> ar.ar_clock <- old

  let clone_thread a =
    { a with a_regs = Array.copy a.a_regs; a_occ = Array.copy a.a_occ }

  (* Materialize the state a non-tip handle denotes: copy the arena at
     its tip, then play the source's undo suffix backwards down to the
     handle's mark.  O(state + suffix).  The clone starts a fresh undo
     log: entries below the mark can never be replayed against it (every
     handle of the new arena has a mark at or above its creation point),
     so the prefix is not copied.  The source arena is only read. *)
  let clone_at (h : handle) : arena =
    let src = h.h_arena in
    let ar =
      { ar_cg = src.ar_cg;
        ar_threads =
          Array.init src.ar_nthreads (fun i -> clone_thread src.ar_threads.(i));
        ar_nthreads = src.ar_nthreads;
        ar_globals = Array.copy src.ar_globals;
        ar_objs = Array.sub src.ar_objs 0 src.ar_nobjs;
        ar_fvals =
          Array.init src.ar_nobjs (fun i -> Array.copy src.ar_fvals.(i));
        ar_ivals =
          Array.init src.ar_nobjs (fun i -> Array.copy src.ar_ivals.(i));
        ar_nobjs = src.ar_nobjs;
        ar_locks = src.ar_locks;
        ar_failure = src.ar_failure;
        ar_clock = src.ar_clock;
        ar_undo = [||];
        ar_undo_n = 0;
        ar_current = None }
    in
    for i = src.ar_undo_n - 1 downto h.h_mark do
      apply_undo ar (undo_get src i)
    done;
    ar

  (* Read-only view of [h]'s state: the live arena when [h] is the tip,
     a throwaway rewound clone otherwise. *)
  let arena h = if is_current h then h.h_arena else clone_at h
  let reading h f = f (arena h)

  let retip ar =
    let h =
      { h_arena = ar; h_mark = ar.ar_undo_n; h_nthreads = ar.ar_nthreads;
        h_failure = ar.ar_failure; h_clock = ar.ar_clock }
    in
    ar.ar_current <- Some h;
    h

  (* [h]'s state on an arena of its own with an empty undo log.  The
     source arena is only read, so every handle into it stays valid;
     once those are dropped, its log can be collected. *)
  let detach h = retip (clone_at h)

  (* --- construction --------------------------------------------------- *)

  let new_thread (cp : cprog) ~id ~name ~base ~context ~parent ~arg =
    let regs = Array.make cp.c_nslots None in
    (match arg with Some v -> regs.(0) <- Some v | None -> ());
    { a_id = id; a_name = name; a_base = base; a_context = context;
      a_prog = cp; a_pc = 0; a_done = false; a_regs = regs;
      a_occ = Array.make (Array.length cp.c_code) 0; a_parent = parent }

  let create (group : Program.group) : handle =
    let cg = cgroup_of group in
    let specs = Array.of_list group.Program.threads in
    let n = Array.length specs in
    let threads =
      Array.init n (fun i ->
          let spec = specs.(i) in
          new_thread cg.cg_top.(i) ~id:i ~name:spec.Program.spec_name
            ~base:spec.Program.spec_name ~context:spec.Program.context
            ~parent:None ~arg:None)
    in
    let globals = Array.make (Array.length cg.cg_gnames) None in
    List.iter
      (fun (name, v) -> globals.(Hashtbl.find cg.cg_gtbl name) <- Some v)
      group.Program.globals;
    retip
      { ar_cg = cg; ar_threads = threads; ar_nthreads = n;
        ar_globals = globals; ar_objs = [||]; ar_fvals = [||];
        ar_ivals = [||]; ar_nobjs = 0; ar_locks = []; ar_failure = None;
        ar_clock = 0; ar_undo = [||]; ar_undo_n = 0; ar_current = None }

  (* --- expression evaluation ------------------------------------------ *)

  (* Mirrors [eval] above shape-for-shape so evaluation order — and hence
     which Model_error surfaces first — is identical. *)
  let rec feval (regs : Value.t option array) (e : cexpr) : Value.t =
    match e with
    | C_const v -> v
    | C_reg (slot, name) -> (
      match regs.(slot) with
      | Some v -> v
      | None -> model_error "read of unset register %s" name)
    | C_add (a, b) -> arith ( + ) regs a b
    | C_sub (a, b) -> arith ( - ) regs a b
    | C_mul (a, b) -> arith ( * ) regs a b
    | C_eq (a, b) -> bool_val (Value.equal (feval regs a) (feval regs b))
    | C_ne (a, b) -> bool_val (not (Value.equal (feval regs a) (feval regs b)))
    | C_lt (a, b) -> fcmp ( < ) regs a b
    | C_le (a, b) -> fcmp ( <= ) regs a b
    | C_gt (a, b) -> fcmp ( > ) regs a b
    | C_ge (a, b) -> fcmp ( >= ) regs a b
    | C_and (a, b) ->
      bool_val (Value.truthy (feval regs a) && Value.truthy (feval regs b))
    | C_or (a, b) ->
      bool_val (Value.truthy (feval regs a) || Value.truthy (feval regs b))
    | C_not a -> bool_val (not (Value.truthy (feval regs a)))
    | C_is_null a -> bool_val (Value.is_null (feval regs a))

  and arith op regs a b =
    Value.Int (op (as_int "arith" (feval regs a)) (as_int "arith" (feval regs b)))

  and fcmp op regs a b =
    bool_val (op (as_int "cmp" (feval regs a)) (as_int "cmp" (feval regs b)))

  let fcheck_access ar ~(ptr : Value.ptr) ~index ~kind ~at =
    match find_obj ar ptr.obj with
    | None -> Some (Failure.General_protection_fault { at })
    | Some o -> (
      match o.Heap.state with
      | Heap.Freed freed_at ->
        Some
          (Failure.Use_after_free
             { at; obj = ptr.obj; tag = o.Heap.tag; kind;
               freed_at = Some freed_at })
      | Heap.Live -> (
        match index with
        | Some i when i < 0 || i >= o.Heap.slots ->
          Some
            (Failure.Out_of_bounds
               { at; obj = ptr.obj; tag = o.Heap.tag; index = i;
                 size = o.Heap.slots })
        | Some _ | None -> None))

  let fresolve ar regs ~kind ~iid (a : caddr) : (Addr.t, Failure.t) result =
    match a with
    | Ca_global (_, addr) -> Ok addr
    | Ca_deref (e, _, field) -> (
      match feval regs e with
      | Value.Null | Value.Int 0 -> Error (Failure.Null_dereference { at = iid })
      | Value.Int _ | Value.List _ ->
        Error (Failure.General_protection_fault { at = iid })
      | Value.Ptr p -> (
        match fcheck_access ar ~ptr:p ~index:None ~kind ~at:iid with
        | Some f -> Error f
        | None -> Ok (Addr.Field (p.obj, field))))
    | Ca_at (e, idx) -> (
      match feval regs e with
      | Value.Null | Value.Int 0 -> Error (Failure.Null_dereference { at = iid })
      | Value.Int _ | Value.List _ ->
        Error (Failure.General_protection_fault { at = iid })
      | Value.Ptr p ->
        let i = as_int "index" (feval regs idx) in
        (match fcheck_access ar ~ptr:p ~index:(Some i) ~kind ~at:iid with
        | Some f -> Error f
        | None -> Ok (Addr.Index (p.obj, i))))

  let rec lock_insert l tid = function
    | [] -> [ (l, tid) ]
    | (l', _) :: _ as rest when l < l' -> (l, tid) :: rest
    | b :: rest -> b :: lock_insert l tid rest

  (* --- stepping ------------------------------------------------------- *)

  (* Per-step helpers are top-level and fully applied at every call
     site, so the hot loop allocates no closures: the only per-step
     allocations are the returned event, the new tip handle and the
     undo entries of the mutations actually performed. *)

  (* Locks held by [tid]: the prepend order over the ascending lock list
     matches the pure engine's Smap fold-prepend (descending names). *)
  let rec held_locks locks tid acc =
    match locks with
    | [] -> acc
    | (l, holder) :: rest ->
      held_locks rest tid (if holder = tid then l :: acc else acc)

  let some_access iid addr kind time held =
    Some { Access.iid; addr; kind; time; held }

  (* The access a failing resolve was attempting, when its base pointer
     is known.  Expressions are pure and already evaluated once by the
     failed resolve, so re-evaluating cannot raise a fresh error. *)
  let attempted_access regs iid time held (a : caddr) kind =
    match a with
    | Ca_deref (e, _, f') -> (
      match feval regs e with
      | Value.Ptr p -> some_access iid (Addr.Field (p.obj, f')) kind time held
      | Value.Int _ | Value.Null | Value.List _ -> None)
    | Ca_at (e, idx) -> (
      match feval regs e with
      | Value.Ptr p -> (
        match feval regs idx with
        | Value.Int i -> some_access iid (Addr.Index (p.obj, i)) kind time held
        | Value.Ptr _ | Value.Null | Value.List _ -> None)
      | Value.Int _ | Value.Null | Value.List _ -> None)
    | Ca_global (_, addr) -> some_access iid addr kind time held

  (* Read/write a location [fresolve] vouched for: global slots hit the
     flat global array, heap locations the per-object value arrays.
     The resolved [addr] pins the object id and checked index. *)
  let read_loc ar (a : caddr) (addr : Addr.t) =
    match (a, addr) with
    | Ca_global (slot, _), _ -> read_global ar slot
    | Ca_deref (_, fslot, _), Addr.Field (obj, _) -> read_field ar obj fslot
    | Ca_at _, Addr.Index (obj, i) -> read_idx ar obj i
    | (Ca_deref _ | Ca_at _), _ -> assert false (* fresolve shape *)

  let write_loc ar (a : caddr) (addr : Addr.t) v =
    match (a, addr) with
    | Ca_global (slot, _), _ -> write_global ar slot v
    | Ca_deref (_, fslot, _), Addr.Field (obj, _) -> write_field ar obj fslot v
    | Ca_at _, Addr.Index (obj, i) -> write_idx ar obj i v
    | (Ca_deref _ | Ca_at _), _ -> assert false (* fresolve shape *)

  let rec ptr_mem p = function
    | [] -> false
    | q :: rest -> Value.ptr_equal p q || ptr_mem p rest

  (* A completed step: clock and occurrence advance and the thread moves
     on — one [U_step] entry undoes all three. *)
  let finish_ok ar (th : athread) old_pc new_pc iid (ci : cinstr) access
      spawned lock_op =
    push_undo ar (U_step (th.a_id, old_pc));
    ar.ar_clock <- ar.ar_clock + 1;
    th.a_occ.(old_pc) <- th.a_occ.(old_pc) + 1;
    th.a_pc <- new_pc;
    Ok
      (retip ar,
       { iid; instr = ci.ci_instr; src = ci.ci_src; access; spawned; lock_op;
         context = th.a_context; thread_name = th.a_name })

  (* A retired Return: as [finish_ok] but the thread parks as done. *)
  let finish_done ar (th : athread) pc iid (ci : cinstr) =
    push_undo ar (U_step_done th.a_id);
    ar.ar_clock <- ar.ar_clock + 1;
    th.a_occ.(pc) <- th.a_occ.(pc) + 1;
    th.a_done <- true;
    Ok
      (retip ar,
       { iid; instr = ci.ci_instr; src = ci.ci_src; access = None;
         spawned = []; lock_op = None; context = th.a_context;
         thread_name = th.a_name })

  (* A manifested failure: the clock advances and the failure is
     recorded, but the faulting instruction does not retire — no
     occurrence bump, no pc advance — mirroring the pure engine, which
     discards its locally advanced thread on this path. *)
  let finish_fail ar (th : athread) f iid (ci : cinstr) access =
    bump_clock ar;
    set_failure ar f;
    Ok
      (retip ar,
       { iid; instr = ci.ci_instr; src = ci.ci_src; access; spawned = [];
         lock_op = None; context = th.a_context; thread_name = th.a_name })

  let step (h : handle) (tid : int) : (handle * event, step_error) result =
    match h.h_failure with
    | Some _ -> Error Machine_failed
    | None ->
      if tid < 0 || tid >= h.h_nthreads then model_error "no thread %d" tid;
      let ar = if is_current h then h.h_arena else clone_at h in
      let th = ar.ar_threads.(tid) in
      if th.a_done || th.a_pc >= Array.length th.a_prog.c_code then
        Error Thread_not_runnable
      else begin
        let pc = th.a_pc in
        let ci = th.a_prog.c_code.(pc) in
        let iid =
          Access.Iid.make ~tid ~label:ci.ci_label ~occ:(th.a_occ.(pc) + 1)
        in
        let regs = th.a_regs in
        (* The flags bitset skips the lock walk for instructions that
           can never record an access. *)
        let held =
          if ci.ci_flags land Flags.accesses = 0 then []
          else held_locks ar.ar_locks tid []
        in
        let time = ar.ar_clock + 1 in
        (* Every case evaluates all expressions (the only source of
           Model_error) before its first arena mutation, so a raise
           leaves the arena — and [h] — untouched, like the pure
           engine discarding its local copies. *)
        match ci.ci_op with
        | O_nop -> finish_ok ar th pc (pc + 1) iid ci None [] None
        | O_assign (dst, e) ->
          let v = feval regs e in
          set_reg ar th dst v;
          finish_ok ar th pc (pc + 1) iid ci None [] None
        | O_branch_if (cond, target) ->
          let new_pc =
            if Value.truthy (feval regs cond) then target else pc + 1
          in
          finish_ok ar th pc new_pc iid ci None [] None
        | O_goto target -> finish_ok ar th pc target iid ci None [] None
        | O_return -> finish_done ar th pc iid ci
        | O_load (dst, a) -> (
          match fresolve ar regs ~kind:Instr.Read ~iid a with
          | Error f ->
            finish_fail ar th f iid ci
              (attempted_access regs iid time held a Instr.Read)
          | Ok addr ->
            set_reg ar th dst (read_loc ar a addr);
            finish_ok ar th pc (pc + 1) iid ci
              (some_access iid addr Instr.Read time held)
              [] None)
        | O_store (a, e) -> (
          match fresolve ar regs ~kind:Instr.Write ~iid a with
          | Error f ->
            finish_fail ar th f iid ci
              (attempted_access regs iid time held a Instr.Write)
          | Ok addr ->
            let v = feval regs e in
            write_loc ar a addr v;
            finish_ok ar th pc (pc + 1) iid ci
              (some_access iid addr Instr.Write time held)
              [] None)
        | O_rmw (ret, a, delta) -> (
          match fresolve ar regs ~kind:Instr.Update ~iid a with
          | Error f ->
            finish_fail ar th f iid ci
              (attempted_access regs iid time held a Instr.Update)
          | Ok addr ->
            let old = as_int "rmw" (read_loc ar a addr) in
            let d = as_int "rmw delta" (feval regs delta) in
            write_loc ar a addr (Value.Int (old + d));
            (match ret with
            | Some r -> set_reg ar th r (Value.Int old)
            | None -> ());
            finish_ok ar th pc (pc + 1) iid ci
              (some_access iid addr Instr.Update time held)
              [] None)
        | O_alloc { al_dst; al_tag; al_fields; al_slots; al_leak } ->
          let vals = List.map (fun (f, e) -> (f, feval regs e)) al_fields in
          let obj = ar.ar_nobjs in
          push_undo ar U_heap_alloc;
          push_obj ar
            { Heap.tag = al_tag; gen = 0; state = Heap.Live; slots = al_slots;
              leak_check = al_leak; alloc_at = iid };
          List.iter (fun (fslot, v) -> write_field ar obj fslot v) vals;
          set_reg ar th al_dst (Value.ptr ~obj ~gen:0);
          finish_ok ar th pc (pc + 1) iid ci None [] None
        | O_free e -> (
          match feval regs e with
          | Value.Null | Value.Int 0 ->
            finish_ok ar th pc (pc + 1) iid ci None [] None
          | Value.Int _ | Value.List _ ->
            finish_fail ar th (Failure.Invalid_free { at = iid }) iid ci None
          | Value.Ptr p -> (
            let access = some_access iid (Addr.Whole p.obj) Instr.Write time held in
            match find_obj ar p.obj with
            | None ->
              finish_fail ar th (Failure.Invalid_free { at = iid }) iid ci
                access
            | Some o -> (
              match o.Heap.state with
              | Heap.Freed _ ->
                finish_fail ar th
                  (Failure.Double_free
                     { at = iid; obj = p.obj; tag = o.Heap.tag })
                  iid ci access
              | Heap.Live ->
                set_obj ar p.obj { o with Heap.state = Heap.Freed iid };
                finish_ok ar th pc (pc + 1) iid ci access [] None)))
        | O_lock l ->
          if List.mem_assoc l ar.ar_locks then Error (Blocked_on_lock l)
          else begin
            set_locks ar (lock_insert l tid ar.ar_locks);
            finish_ok ar th pc (pc + 1) iid ci None [] (Some (l, `Acquire))
          end
        | O_unlock l -> (
          match List.assoc_opt l ar.ar_locks with
          | Some holder when holder = tid ->
            set_locks ar (List.remove_assoc l ar.ar_locks);
            finish_ok ar th pc (pc + 1) iid ci None [] (Some (l, `Release))
          | Some _ | None ->
            model_error "thread %d unlocks %s it does not hold" tid l)
        | O_spawn { sp_entry; sp_arg; sp_ctx } ->
          let argv = feval regs sp_arg in
          let prog = Program.find_entry ar.ar_cg.cg_source sp_entry in
          let cp = List.assq prog ar.ar_cg.cg_progs in
          let id = ar.ar_nthreads in
          let nth =
            new_thread cp ~id ~name:(Fmt.str "%s.%d" sp_entry id)
              ~base:sp_entry ~context:sp_ctx ~parent:(Some tid)
              ~arg:(Some argv)
          in
          push_undo ar U_spawn;
          push_thread ar nth;
          finish_ok ar th pc (pc + 1) iid ci None [ (id, sp_entry) ] None
        | O_bug_on e ->
          if Value.truthy (feval regs e) then
            finish_fail ar th (Failure.Assertion_violation { at = iid }) iid
              ci None
          else finish_ok ar th pc (pc + 1) iid ci None [] None
        | O_warn_on e ->
          if Value.truthy (feval regs e) then
            finish_fail ar th (Failure.Warning { at = iid }) iid ci None
          else finish_ok ar th pc (pc + 1) iid ci None [] None
        | O_list_add (a, item) -> (
          match fresolve ar regs ~kind:Instr.Write ~iid a with
          | Error f -> finish_fail ar th f iid ci None
          | Ok addr -> (
            match feval regs item with
            | Value.Ptr p ->
              let cur =
                match read_loc ar a addr with
                | Value.List ps -> ps
                | Value.Int 0 | Value.Null -> []
                | v ->
                  model_error "list_add on non-list value %s"
                    (Value.to_string v)
              in
              if ptr_mem p cur then
                finish_fail ar th
                  (Failure.List_corruption
                     { at = iid; reason = "double list_add of the same entry" })
                  iid ci
                  (some_access iid addr Instr.Write time held)
              else begin
                write_loc ar a addr (Value.List (p :: cur));
                finish_ok ar th pc (pc + 1) iid ci
                  (some_access iid addr Instr.Write time held)
                  [] None
              end
            | v ->
              model_error "list_add of non-pointer %s" (Value.to_string v)))
        | O_list_del (a, item) -> (
          match fresolve ar regs ~kind:Instr.Write ~iid a with
          | Error f -> finish_fail ar th f iid ci None
          | Ok addr -> (
            match feval regs item with
            | Value.Ptr p ->
              let cur =
                match read_loc ar a addr with
                | Value.List ps -> ps
                | Value.Int 0 | Value.Null -> []
                | v ->
                  model_error "list_del on non-list value %s"
                    (Value.to_string v)
              in
              if not (ptr_mem p cur) then
                finish_fail ar th
                  (Failure.List_corruption
                     { at = iid; reason = "list_del of entry not on the list" })
                  iid ci
                  (some_access iid addr Instr.Write time held)
              else begin
                let cur' =
                  List.filter (fun q -> not (Value.ptr_equal p q)) cur
                in
                write_loc ar a addr (Value.List cur');
                finish_ok ar th pc (pc + 1) iid ci
                  (some_access iid addr Instr.Write time held)
                  [] None
              end
            | v ->
              model_error "list_del of non-pointer %s" (Value.to_string v)))
        | O_list_contains (dst, a, item) -> (
          match fresolve ar regs ~kind:Instr.Read ~iid a with
          | Error f -> finish_fail ar th f iid ci None
          | Ok addr ->
            let cur =
              match read_loc ar a addr with Value.List ps -> ps | _ -> []
            in
            let present =
              match feval regs item with
              | Value.Ptr p -> ptr_mem p cur
              | _ -> false
            in
            set_reg ar th dst (bool_val present);
            finish_ok ar th pc (pc + 1) iid ci
              (some_access iid addr Instr.Read time held)
              [] None)
        | O_list_empty (dst, a) -> (
          match fresolve ar regs ~kind:Instr.Read ~iid a with
          | Error f -> finish_fail ar th f iid ci None
          | Ok addr ->
            let empty =
              match read_loc ar a addr with
              | Value.List (_ :: _) -> false
              | Value.List [] | _ -> true
            in
            set_reg ar th dst (bool_val empty);
            finish_ok ar th pc (pc + 1) iid ci
              (some_access iid addr Instr.Read time held)
              [] None)
        | O_list_first (dst, a) -> (
          match fresolve ar regs ~kind:Instr.Read ~iid a with
          | Error f -> finish_fail ar th f iid ci None
          | Ok addr ->
            let v =
              match read_loc ar a addr with
              | Value.List (p :: _) -> Value.Ptr p
              | Value.List [] | _ -> Value.Null
            in
            set_reg ar th dst v;
            finish_ok ar th pc (pc + 1) iid ci
              (some_access iid addr Instr.Read time held)
              [] None)
        | O_ref_get a -> (
          match fresolve ar regs ~kind:Instr.Update ~iid a with
          | Error f ->
            finish_fail ar th f iid ci
              (attempted_access regs iid time held a Instr.Update)
          | Ok addr ->
            let old = as_int "refcount" (read_loc ar a addr) in
            if old <= 0 then
              finish_fail ar th (Failure.Warning { at = iid }) iid ci
                (some_access iid addr Instr.Update time held)
            else begin
              write_loc ar a addr (Value.Int (old + 1));
              finish_ok ar th pc (pc + 1) iid ci
                (some_access iid addr Instr.Update time held)
                [] None
            end)
        | O_ref_put (ret, a) -> (
          match fresolve ar regs ~kind:Instr.Update ~iid a with
          | Error f ->
            finish_fail ar th f iid ci
              (attempted_access regs iid time held a Instr.Update)
          | Ok addr ->
            let old = as_int "refcount" (read_loc ar a addr) in
            if old <= 0 then
              finish_fail ar th (Failure.Warning { at = iid }) iid ci
                (some_access iid addr Instr.Update time held)
            else begin
              write_loc ar a addr (Value.Int (old - 1));
              (match ret with
              | Some r -> set_reg ar th r (Value.Int (old - 1))
              | None -> ());
              finish_ok ar th pc (pc + 1) iid ci
                (some_access iid addr Instr.Update time held)
                [] None
            end)
      end

  (* --- inspection ----------------------------------------------------- *)

  let check_tid h tid =
    if tid < 0 || tid >= h.h_nthreads then model_error "no thread %d" tid

  (* Name, base, context, parent are immutable per thread record and
     thread slots below a handle's count are never overwritten in its
     arena, so these never need a clone. *)
  let thread_rec h tid =
    check_tid h tid;
    h.h_arena.ar_threads.(tid)

  let thread_base h tid = (thread_rec h tid).a_base
  let thread_context h tid = (thread_rec h tid).a_context
  let thread_parent h tid = (thread_rec h tid).a_parent
  let thread_ids h = List.init h.h_nthreads (fun i -> i)
  let has_thread h tid = tid >= 0 && tid < h.h_nthreads

  let running (th : athread) =
    (not th.a_done) && th.a_pc < Array.length th.a_prog.c_code

  let next_labeled h tid =
    check_tid h tid;
    reading h (fun ar ->
        let th = ar.ar_threads.(tid) in
        if running th then Some (Program.get th.a_prog.c_source th.a_pc)
        else None)

  let is_done h tid =
    check_tid h tid;
    reading h (fun ar -> not (running ar.ar_threads.(tid)))

  let blocked_on h tid =
    check_tid h tid;
    reading h (fun ar ->
        let th = ar.ar_threads.(tid) in
        if not (running th) then None
        else
          match th.a_prog.c_code.(th.a_pc).ci_op with
          | O_lock l -> if List.mem_assoc l ar.ar_locks then Some l else None
          | _ -> None)

  let lock_holder h l = reading h (fun ar -> List.assoc_opt l ar.ar_locks)

  (* Not done and not about to block on a held lock. *)
  let steppable ar tid =
    let th = ar.ar_threads.(tid) in
    running th
    &&
    match th.a_prog.c_code.(th.a_pc).ci_op with
    | O_lock l -> not (List.mem_assoc l ar.ar_locks)
    | _ -> true

  let runnable h =
    match h.h_failure with
    | Some _ -> []
    | None ->
      reading h (fun ar ->
          let acc = ref [] in
          for tid = ar.ar_nthreads - 1 downto 0 do
            let th = ar.ar_threads.(tid) in
            if running th then (
              match th.a_prog.c_code.(th.a_pc).ci_op with
              | O_lock l when List.mem_assoc l ar.ar_locks -> ()
              | _ -> acc := tid :: !acc)
          done;
          !acc)

  let can_step h tid =
    match h.h_failure with
    | Some _ -> false
    | None -> tid >= 0 && tid < h.h_nthreads && steppable (arena h) tid

  let rec first_steppable ar tid =
    if tid >= ar.ar_nthreads then None
    else if steppable ar tid then Some tid
    else first_steppable ar (tid + 1)

  let first_runnable h =
    match h.h_failure with
    | Some _ -> None
    | None -> first_steppable (arena h) 0

  let pc_of_label h tid label =
    match Program.position_of_label (thread_rec h tid).a_prog.c_source label with
    | pc -> Some pc
    | exception Program.Unknown_label _ -> None

  let next_pc h tid =
    check_tid h tid;
    let th = (arena h).ar_threads.(tid) in
    if running th then th.a_pc else -1

  let occurrences_at h tid pc =
    check_tid h tid;
    (arena h).ar_threads.(tid).a_occ.(pc)

  let all_done h =
    reading h (fun ar ->
        let ok = ref true in
        for tid = 0 to ar.ar_nthreads - 1 do
          if running ar.ar_threads.(tid) then ok := false
        done;
        !ok)

  let has_started h tid =
    check_tid h tid;
    reading h (fun ar ->
        let th = ar.ar_threads.(tid) in
        th.a_pc > 0 || th.a_done || Array.exists (fun n -> n > 0) th.a_occ)

  let occurrences h tid label =
    check_tid h tid;
    reading h (fun ar ->
        let th = ar.ar_threads.(tid) in
        match Program.position_of_label th.a_prog.c_source label with
        | exception Program.Unknown_label _ -> 0
        | pc -> th.a_occ.(pc))

  let reg h tid r =
    check_tid h tid;
    reading h (fun ar ->
        let th = ar.ar_threads.(tid) in
        match Hashtbl.find_opt th.a_prog.c_slots r with
        | None -> None
        | Some slot -> th.a_regs.(slot))

  let mem_read h addr =
    reading h (fun ar ->
        match addr with
        | Addr.Global g -> (
          match Hashtbl.find_opt ar.ar_cg.cg_gtbl g with
          | Some slot -> read_global ar slot
          | None -> v_zero)
        | Addr.Field (obj, f) -> (
          match Hashtbl.find_opt ar.ar_cg.cg_ftbl f with
          | Some fslot when obj >= 0 && obj < ar.ar_nobjs ->
            read_field ar obj fslot
          | Some _ | None -> v_zero)
        | Addr.Index (obj, i) ->
          if
            obj >= 0 && obj < ar.ar_nobjs && i >= 0
            && i < Array.length ar.ar_ivals.(obj)
          then read_idx ar obj i
          else v_zero
        | Addr.Whole _ -> v_zero)

  (* --- leaks ---------------------------------------------------------- *)

  let check_leaks h =
    match h.h_failure with
    | Some _ -> h
    | None ->
      let decide ar =
        let finished = ref true in
        for tid = 0 to ar.ar_nthreads - 1 do
          if running ar.ar_threads.(tid) then finished := false
        done;
        if not !finished then None
        else begin
          let objs = ref [] in
          for i = ar.ar_nobjs - 1 downto 0 do
            let o = ar.ar_objs.(i) in
            match o.Heap.state with
            | Heap.Live when o.Heap.leak_check ->
              objs := (i, o.Heap.tag) :: !objs
            | Heap.Live | Heap.Freed _ -> ()
          done;
          match !objs with [] -> None | objs -> Some objs
        end
      in
      if is_current h then (
        match decide h.h_arena with
        | None -> h
        | Some objs ->
          let ar = h.h_arena in
          set_failure ar (Failure.Memory_leak { objs });
          retip ar)
      else
        let ar = clone_at h in
        (match decide ar with
        | None -> h
        | Some objs ->
          set_failure ar (Failure.Memory_leak { objs });
          retip ar)

  (* --- bridge to the pure engine -------------------------------------- *)

  (* Materialize the persistent representation of [h]'s state, for
     fingerprinting: the digest is computed by the one canonical pure
     renderer, so fingerprint parity is structural state parity. *)
  let to_pure (h : handle) : pure =
    let build ar =
      let threads = ref Imap.empty in
      for tid = ar.ar_nthreads - 1 downto 0 do
        let a = ar.ar_threads.(tid) in
        let regs = ref Smap.empty in
        Array.iteri
          (fun slot v ->
            match v with
            | Some v -> regs := Smap.add a.a_prog.c_regs.(slot) v !regs
            | None -> ())
          a.a_regs;
        let occ = ref Smap.empty in
        Array.iteri
          (fun pc n ->
            if n > 0 then occ := Smap.add a.a_prog.c_code.(pc).ci_label n !occ)
          a.a_occ;
        threads :=
          Imap.add tid
            { id = tid; name = a.a_name; base = a.a_base;
              context = a.a_context; program = a.a_prog.c_source; pc = a.a_pc;
              regs = !regs; occ = !occ;
              status = (if a.a_done then Done else Runnable);
              parent = a.a_parent }
            !threads
      done;
      let mem = ref Addr.Map.empty in
      Array.iteri
        (fun slot v ->
          match v with
          | Some v ->
            mem := Addr.Map.add (Addr.Global ar.ar_cg.cg_gnames.(slot)) v !mem
          | None -> ())
        ar.ar_globals;
      let fnames = ar.ar_cg.cg_fnames in
      for obj = 0 to ar.ar_nobjs - 1 do
        let fv = ar.ar_fvals.(obj) in
        for fslot = 0 to Array.length fv - 1 do
          if fv.(fslot) != v_unbound then
            mem := Addr.Map.add (Addr.Field (obj, fnames.(fslot))) fv.(fslot) !mem
        done;
        let iv = ar.ar_ivals.(obj) in
        for i = 0 to Array.length iv - 1 do
          if iv.(i) != v_unbound then
            mem := Addr.Map.add (Addr.Index (obj, i)) iv.(i) !mem
        done
      done;
      let mem = !mem in
      let objs = ref [] in
      for i = ar.ar_nobjs - 1 downto 0 do
        objs := (i, ar.ar_objs.(i)) :: !objs
      done;
      let heap = Heap.of_objs !objs ~next:ar.ar_nobjs in
      let locks =
        List.fold_left
          (fun m (l, holder) -> Smap.add l holder m)
          Smap.empty ar.ar_locks
      in
      { group = ar.ar_cg.cg_source; threads = !threads; mem; heap; locks;
        failure = ar.ar_failure; next_tid = ar.ar_nthreads;
        clock = ar.ar_clock }
    in
    reading h build

  (* --- compile-table introspection (for the parity tests) ------------- *)

  let pc_flags p pc =
    (compile_program ~gslot:(fun _ -> 0) ~fslot:(fun _ -> 0) p)
      .c_code.(pc)
      .ci_flags

  let pc_globals p pc =
    (compile_program ~gslot:(fun _ -> 0) ~fslot:(fun _ -> 0) p)
      .c_code.(pc)
      .ci_globals
end

(* ===================================================================== *)
(* Facade: a machine is either engine.  Each wrapper below shadows the
   pure implementation above; inside a wrapper's body the unqualified
   name still denotes the pure version ([let] is non-recursive). *)

type t = Pure of pure | Fast of Fast.handle

let create group = Pure (create group)
let create_compiled group = Fast (Fast.create group)

let failed = function Pure p -> failed p | Fast h -> h.Fast.h_failure
let thread_ids = function Pure p -> thread_ids p | Fast h -> Fast.thread_ids h

let has_thread m tid =
  match m with Pure p -> has_thread p tid | Fast h -> Fast.has_thread h tid

let has_started m tid =
  match m with Pure p -> has_started p tid | Fast h -> Fast.has_started h tid

let occurrences m tid label =
  match m with
  | Pure p -> occurrences p tid label
  | Fast h -> Fast.occurrences h tid label

let thread_base m tid =
  match m with Pure p -> thread_base p tid | Fast h -> Fast.thread_base h tid

let thread_context m tid =
  match m with
  | Pure p -> thread_context p tid
  | Fast h -> Fast.thread_context h tid

let thread_parent m tid =
  match m with
  | Pure p -> thread_parent p tid
  | Fast h -> Fast.thread_parent h tid

let is_done m tid =
  match m with Pure p -> is_done p tid | Fast h -> Fast.is_done h tid

let next_label m tid =
  match m with
  | Pure p -> next_label p tid
  | Fast h ->
    Option.map (fun (l : Program.labeled) -> l.label) (Fast.next_labeled h tid)

let blocked_on m tid =
  match m with Pure p -> blocked_on p tid | Fast h -> Fast.blocked_on h tid

let lock_holder m l =
  match m with Pure p -> lock_holder p l | Fast h -> Fast.lock_holder h l

let runnable = function Pure p -> runnable p | Fast h -> Fast.runnable h

let can_step m tid =
  match m with Pure p -> can_step p tid | Fast h -> Fast.can_step h tid

let first_runnable = function
  | Pure p -> first_runnable p
  | Fast h -> Fast.first_runnable h

let pc_of_label m tid label =
  match m with
  | Pure p -> pc_of_label p tid label
  | Fast h -> Fast.pc_of_label h tid label

let next_pc m tid =
  match m with Pure p -> next_pc p tid | Fast h -> Fast.next_pc h tid

let occurrences_at m tid pc =
  match m with
  | Pure p -> occurrences_at p tid pc
  | Fast h -> Fast.occurrences_at h tid pc

let all_done = function Pure p -> all_done p | Fast h -> Fast.all_done h

let reg m tid r =
  match m with Pure p -> reg p tid r | Fast h -> Fast.reg h tid r

let mem_read m addr =
  match m with Pure p -> mem_read p addr | Fast h -> Fast.mem_read h addr

let step m tid =
  match m with
  | Pure p -> (
    match step p tid with
    | Ok (p', ev) -> Ok (Pure p', ev)
    | Error _ as e -> e)
  | Fast h -> (
    match Fast.step h tid with
    | Ok (h', ev) -> Ok (Fast h', ev)
    | Error _ as e -> e)

let check_leaks = function
  | Pure p -> Pure (check_leaks p)
  | Fast h -> Fast (Fast.check_leaks h)

let fingerprint = function
  | Pure p -> fingerprint p
  | Fast h -> fingerprint (Fast.to_pure h)

(* --- compiled-engine management -------------------------------------- *)

let detach = function Pure _ as m -> m | Fast h -> Fast (Fast.detach h)

let instr_flags = Fast.pc_flags
let instr_globals = Fast.pc_globals
