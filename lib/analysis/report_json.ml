(* JSON emission for the analyze and lint reports, built on the
   Telemetry.Json combinators. *)

open Telemetry.Json

let kind_json k = str (Fmt.to_to_string Ksim.Instr.pp_access_kind k)

let site_json (s : Candidates.site) =
  obj
    [ ("thread", str s.thread);
      ("label", str s.label);
      ("addr", str (Absaddr.to_string s.addr));
      ("kind", kind_json s.kind);
      ("func", str s.src.Ksim.Program.func);
      ("line", string_of_int s.src.Ksim.Program.line);
      ("must_locks", str_list (Lockset.Names.elements s.point.Lockset.must));
      ("may_locks", str_list (Lockset.Names.elements s.point.Lockset.may)) ]

let endpoint_json (s : Candidates.site) =
  obj
    [ ("thread", str s.thread);
      ("label", str s.label);
      ("addr", str (Absaddr.to_string s.addr));
      ("kind", kind_json s.kind) ]

let pair_json (p : Candidates.pair) =
  obj
    [ ("a", endpoint_json p.site_a);
      ("b", endpoint_json p.site_b);
      ("class", str (Candidates.cls_name p.cls));
      ("witness_locks", str_list p.witness) ]

let stats_json (s : Summary.stats) =
  obj
    [ ("threads", string_of_int s.n_threads);
      ("sites", string_of_int s.n_sites);
      ("pairs", string_of_int s.n_pairs);
      ("guarded", string_of_int s.n_guarded);
      ("unguarded", string_of_int s.n_unguarded);
      ("ambiguous", string_of_int s.n_ambiguous);
      ("pruning_ratio", Printf.sprintf "%.4f" s.pruning_ratio) ]

let to_string (r : Candidates.result) =
  obj
    [ ("group", str r.group_name);
      ("threads", str_list r.thread_names);
      ("serial_prologue", str_list r.serial);
      ("stats", stats_json (Summary.stats r));
      ("sites", arr (List.map site_json r.sites));
      ("pairs", arr (List.map pair_json r.pairs)) ]

(* --- lock-order lint ---------------------------------------------------- *)

let edge_json (e : Lockorder.edge) =
  obj
    [ ("held", str e.held);
      ("acquired", str e.acquired);
      ("thread", str e.via_thread);
      ("label", str e.via_label);
      ("must", bool e.must) ]

let cycle_json (c : Lockorder.cycle) =
  obj
    [ ("locks", str_list c.cycle_locks);
      ("witness", arr (List.map edge_json c.cycle_edges));
      ("parallel", bool c.parallel) ]

let site_ref (thread, label) =
  obj [ ("thread", str thread); ("label", str label) ]

let inversion_json (v : Lockorder.inversion) =
  obj
    [ ("lock", str v.inv_lock);
      ("global", str v.inv_global);
      ("publisher", site_ref v.publisher);
      ("consumer", site_ref v.consumer);
      ("unchecked_use", site_ref v.use);
      (* The two-node witness cycle in the section-order graph: the
         publication dependence edge vs the unenforced schedule edge. *)
      ("witness_cycle", arr [ site_ref v.publisher; site_ref v.consumer ]) ]

let lint_to_string (r : Lockorder.report) =
  obj
    [ ("group", str r.group_name);
      ("threads", str_list r.thread_names);
      ("edges", arr (List.map edge_json r.edges));
      ("cycles", arr (List.map cycle_json r.cycles));
      ("inversions", arr (List.map inversion_json r.inversions)) ]

(* --- error-invariant sections ------------------------------------------ *)

let redundant_json (r : Invariants.redundant) =
  obj
    [ ("thread", str r.red_thread);
      ("lock", str r.red_lock);
      (* the witness segment: the section the invariant proves inert *)
      ("witness_start", str r.red_start);
      ("witness_stop", str r.red_stop);
      ("body_instrs", int r.red_body) ]

let invariants_to_string (rel : Absdom.t)
    (redundant : Invariants.redundant list) =
  obj
    [ ("relevant_locations",
       str_list (List.map Absaddr.to_string (Absdom.relevant rel)));
      ("redundant_sections", arr (List.map redundant_json redundant)) ]
