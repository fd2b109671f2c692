(* The execution-engine selector: one name for "which Machine
   implementation runs the guest", threaded from the CLI through Vm into
   every layer that boots machines.  The interface deliberately mirrors
   how the executor and the snapshot cache consume machines — step,
   snapshot, restore, fingerprint — so those layers need never
   pattern-match on machine internals. *)

type kind = Reference | Compiled

let default = Compiled

let names = [ ("reference", Reference); ("compiled", Compiled) ]

let to_string k = fst (List.find (fun (_, k') -> k' = k) names)

let of_string s =
  Option.to_result (List.assoc_opt s names)
    ~none:
      (Fmt.str "unknown engine %S (expected %s)" s
         (String.concat "|" (List.map fst names)))

let boot = function
  | Reference -> Machine.create
  | Compiled -> Machine.create_compiled

let kind_of m = if Machine.compiled m then Compiled else Reference

let step = Machine.step

(* A snapshot is the machine value itself: the reference engine is
   persistent, and the compiled engine is frozen so the shared arena is
   only ever read (restores clone-and-rewind from it). *)
type snapshot = Machine.t

let snapshot m =
  Machine.freeze m;
  m

let restore s = s

let snapshot_cost ?prev (m : Machine.t) = Machine.snapshot_cost ?prev m

let fingerprint = Machine.fingerprint
