(* Failure-relevance closure: the abstract stand-in for an error
   invariant.

   LIFS's class collapse and the redundant-section lint (see
   Invariants) both ask whether some accesses can matter to the
   failure.  That reduces to a reachability question over values:
   which memory locations can (transitively) influence a branch
   condition, a failure predicate, an address computation, a spawn
   argument or a free target?  Reordering accesses to any {e other}
   location changes data nobody ever acts on — every thread still
   executes the same instruction sequence and the faulting instruction
   sees the same operands.

   The closure is flow-insensitive over the whole program group, in the
   abstract location domain of {!Absaddr} (heap objects collapse to
   field names).  Per program it tracks the set of {e relevant
   registers} (those whose value may flow into a sink), globally the
   set of {e relevant locations}; the two grow together to a fixpoint:

   - sinks seed the register sets: branch conditions, BUG_ON/WARN_ON
     predicates, kfree targets, spawn arguments, and every register
     used in an address computation;
   - a load into a relevant register makes its source location
     relevant; a store to a relevant location makes its source
     registers relevant — and symmetrically for RMW, list and refcount
     operations.

   Location membership is answered through {!Absaddr.may_alias}, so the
   closure inherits the abstraction's sound collapsing of heap
   objects. *)

module I = Ksim.Instr
module SS = Flipfeas.SS
module AS = Set.Make (Absaddr)

type t = { rel : AS.t }

let abstract : Ksim.Addr.t -> Absaddr.t = function
  | Ksim.Addr.Global g -> Absaddr.Global g
  | Ksim.Addr.Field (_, f) -> Absaddr.Field f
  | Ksim.Addr.Index (_, _) -> Absaddr.Slot
  | Ksim.Addr.Whole _ -> Absaddr.Whole

let mem_abs t a = AS.exists (Absaddr.may_alias a) t.rel
let mem_addr t addr = mem_abs t (abstract addr)
let relevant t = AS.elements t.rel

(* Address expressions an instruction evaluates: their registers are
   always relevant (a changed address redirects an access). *)
let addr_exprs : I.t -> I.addr_expr list = function
  | I.Load { src; _ } -> [ src ]
  | I.Store { dst; _ } -> [ dst ]
  | I.Rmw { loc; _ } | I.Ref_get { loc } | I.Ref_put { loc; _ } -> [ loc ]
  | I.List_add { list; _ }
  | I.List_del { list; _ }
  | I.List_contains { list; _ }
  | I.List_empty { list; _ }
  | I.List_first { list; _ } -> [ list ]
  | I.Assign _ | I.Branch_if _ | I.Goto _ | I.Return | I.Nop | I.Lock _
  | I.Unlock _ | I.Alloc _ | I.Free _ | I.Queue_work _ | I.Call_rcu _
  | I.Arm_timer _ | I.Enable_irq _ | I.Bug_on _ | I.Warn_on _ -> []

(* One flow-insensitive transfer of [instr] over (relevant locations,
   relevant registers of its program).  Monotone: both sets only grow. *)
let transfer (rel, rs) (instr : I.t) =
  let rel = ref rel and rs = ref rs in
  let add_regs s = rs := SS.union s !rs in
  let add_loc a =
    let a = Absaddr.of_addr_expr a in
    if not (AS.mem a !rel) then rel := AS.add a !rel
  in
  let reg_rel r = SS.mem r !rs in
  let loc_rel a =
    AS.exists (Absaddr.may_alias (Absaddr.of_addr_expr a)) !rel
  in
  (* Sinks: registers feeding control flow, failure predicates, frees,
     spawns and address computations are relevant unconditionally. *)
  (match instr with
  | I.Branch_if { cond; _ } -> add_regs (Flipfeas.expr_regs SS.empty cond)
  | I.Bug_on e | I.Warn_on e -> add_regs (Flipfeas.expr_regs SS.empty e)
  | I.Free { ptr } -> add_regs (Flipfeas.expr_regs SS.empty ptr)
  | I.Queue_work { arg; _ }
  | I.Call_rcu { arg; _ }
  | I.Arm_timer { arg; _ }
  | I.Enable_irq { arg; _ } -> add_regs (Flipfeas.expr_regs SS.empty arg)
  | _ -> ());
  List.iter
    (fun a -> add_regs (Flipfeas.addr_regs SS.empty a))
    (addr_exprs instr);
  (* Backward value flow into the relevant sets. *)
  (match instr with
  | I.Load { dst; src } -> if reg_rel dst then add_loc src
  | I.Store { dst; src } ->
    if loc_rel dst then add_regs (Flipfeas.expr_regs SS.empty src)
  | I.Rmw { ret; loc; delta } ->
    (match ret with Some r when reg_rel r -> add_loc loc | _ -> ());
    if loc_rel loc then add_regs (Flipfeas.expr_regs SS.empty delta)
  | I.Assign { dst; src } ->
    if reg_rel dst then add_regs (Flipfeas.expr_regs SS.empty src)
  | I.Alloc { dst; fields; _ } ->
    if reg_rel dst then
      List.iter
        (fun (_, e) -> add_regs (Flipfeas.expr_regs SS.empty e))
        fields
  | I.List_contains { dst; list; item } ->
    if reg_rel dst then (
      add_loc list;
      add_regs (Flipfeas.expr_regs SS.empty item))
  | I.List_empty { dst; list } | I.List_first { dst; list } ->
    if reg_rel dst then add_loc list
  | I.List_add { list; item } | I.List_del { list; item } ->
    if loc_rel list then add_regs (Flipfeas.expr_regs SS.empty item)
  | I.Ref_put { ret; loc } -> (
    match ret with Some r when reg_rel r -> add_loc loc | _ -> ())
  | I.Branch_if _ | I.Goto _ | I.Return | I.Nop | I.Lock _ | I.Unlock _
  | I.Free _ | I.Queue_work _ | I.Call_rcu _ | I.Arm_timer _
  | I.Enable_irq _ | I.Bug_on _ | I.Warn_on _ | I.Ref_get _ -> ());
  (!rel, !rs)

let of_group (group : Ksim.Program.group) : t =
  Telemetry.Probe.with_span ~cat:"analysis" "analysis.absdom" @@ fun () ->
  let programs =
    List.map
      (fun (s : Ksim.Program.thread_spec) -> s.program)
      group.Ksim.Program.threads
    @ List.map snd group.Ksim.Program.entries
  in
  let regs = Array.make (List.length programs) SS.empty in
  let rel = ref AS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iteri
      (fun pi p ->
        let r = ref !rel and rs = ref regs.(pi) in
        for i = 0 to Ksim.Program.length p - 1 do
          let r', rs' = transfer (!r, !rs) (Ksim.Program.get p i).instr in
          r := r';
          rs := rs'
        done;
        if not (AS.equal !r !rel) then (
          rel := !r;
          changed := true);
        if not (SS.equal !rs regs.(pi)) then (
          regs.(pi) <- !rs;
          changed := true))
      programs
  done;
  { rel = !rel }

let pp ppf t =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:Fmt.comma Absaddr.pp) (relevant t)
