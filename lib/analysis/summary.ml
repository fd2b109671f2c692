(* Headline statistics and the hint lookup handed to LIFS. *)

type stats = {
  n_threads : int;
  n_sites : int;
  n_pairs : int;
  n_guarded : int;
  n_unguarded : int;
  n_ambiguous : int;
  pruning_ratio : float;
}

let stats (r : Candidates.result) : stats =
  let count c =
    List.length (List.filter (fun (p : Candidates.pair) -> p.cls = c) r.pairs)
  in
  let n_pairs = List.length r.pairs in
  let n_guarded = count Candidates.Guarded in
  { n_threads = List.length r.thread_names;
    n_sites = List.length r.sites;
    n_pairs;
    n_guarded;
    n_unguarded = count Candidates.Unguarded;
    n_ambiguous = count Candidates.Ambiguous;
    pruning_ratio =
      (if n_pairs = 0 then 0.0
       else float_of_int n_guarded /. float_of_int n_pairs) }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d thread(s), %d site(s), %d pair(s): %d guarded / %d unguarded / %d \
     ambiguous (pruning ratio %.2f)"
    s.n_threads s.n_sites s.n_pairs s.n_guarded s.n_unguarded s.n_ambiguous
    s.pruning_ratio

(* --- lock-order lint headline ------------------------------------------ *)

type lint_stats = {
  n_lock_edges : int;
  n_cycles : int;
  n_parallel_cycles : int;  (* cycles whose witness threads can overlap *)
  n_inversions : int;
}

let lint_stats (r : Lockorder.report) : lint_stats =
  { n_lock_edges = List.length r.edges;
    n_cycles = List.length r.cycles;
    n_parallel_cycles =
      List.length
        (List.filter (fun (c : Lockorder.cycle) -> c.parallel) r.cycles);
    n_inversions = List.length r.inversions }

let clean l = l.n_cycles = 0 && l.n_inversions = 0

let pp_lint_stats ppf l =
  Fmt.pf ppf
    "%d acquisition edge(s), %d cycle(s) (%d schedulable), %d inversion(s)"
    l.n_lock_edges l.n_cycles l.n_parallel_cycles l.n_inversions

(* Classification lookup keyed by the canonically ordered pair of
   (thread, label) site identities. *)
type hints = (string, Candidates.pair) Hashtbl.t

let pair_key (ta, la) (tb, lb) =
  let a = ta ^ ":" ^ la and b = tb ^ ":" ^ lb in
  if String.compare a b <= 0 then a ^ "|" ^ b else b ^ "|" ^ a

(* A (thread, label) static pair can appear several times in the
   candidate set only via the entry self-pairing degenerate case; the
   classification is a function of the two locksets, hence identical
   across duplicates, so last-write-wins is safe. *)
let hints (r : Candidates.result) : hints =
  let h = Hashtbl.create (List.length r.pairs * 2) in
  List.iter
    (fun (p : Candidates.pair) ->
      Hashtbl.replace h
        (pair_key (p.site_a.thread, p.site_a.label)
           (p.site_b.thread, p.site_b.label))
        p)
    r.pairs;
  h

let classify h ~a ~b =
  Option.map
    (fun (p : Candidates.pair) -> p.cls)
    (Hashtbl.find_opt h (pair_key a b))

let guarded_rank = 4

(* An Unguarded pair whose conflict threatens object lifetime — one
   endpoint frees or reallocates the whole object — or that is
   write-against-write is the strongest static race signal; those come
   first.  Plain Unguarded read/write conflicts follow, then Ambiguous
   (may-lock overlap only), then pairs outside the static candidate set
   (e.g. dynamically discovered aliasing the abstraction missed).
   Guarded pairs rank last and are prunable. *)
let pair_rank (p : Candidates.pair) =
  match p.cls with
  | Candidates.Guarded -> guarded_rank
  | Candidates.Ambiguous -> 2
  | Candidates.Unguarded ->
    let lifetime =
      p.site_a.addr = Absaddr.Whole || p.site_b.addr = Absaddr.Whole
    in
    let write_write =
      p.site_a.kind <> Ksim.Instr.Read && p.site_b.kind <> Ksim.Instr.Read
    in
    if lifetime || write_write then 0 else 1

let rank h ~a ~b =
  match Hashtbl.find_opt h (pair_key a b) with
  | None -> 3
  | Some p -> pair_rank p

type pruned_kind =
  [ `Lifs_equivalent
  | `Lifs_static
  | `Lifs_invariant
  | `Ca_static ]

let pruned_counter = function
  | `Lifs_equivalent -> "pruned/lifs_equivalent"
  | `Lifs_static -> "pruned/lifs_static"
  | `Lifs_invariant -> "pruned/lifs_invariant"
  | `Ca_static -> "pruned/ca_static"

let count_pruned ?by kind = Telemetry.Probe.count ?by (pruned_counter kind)
