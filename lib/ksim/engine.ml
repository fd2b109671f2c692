(* The execution-engine selector: one name for "which Machine
   implementation runs the guest", threaded from Diagnose through Vm
   into every layer that boots machines.  Everything past the boot goes
   through [Machine] itself, which answers every query identically on
   both engines. *)

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

let step = Machine.step
