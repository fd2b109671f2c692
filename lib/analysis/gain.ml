(* Expected-information-gain scheduling of the LIFS frontier (after
   Fariha et al., "Causality-Guided Adaptive Interventional
   Debugging").

   Each candidate run — a serial execution or a frontier extension —
   is a Bernoulli experiment: it reproduces the failure or not.  The
   information an experiment yields is the binary entropy of its
   success probability, so the scheduler always runs the candidate
   whose current estimate is closest to a coin toss and leaves
   near-certain candidates (whose outcome we can already predict) for
   last.  Estimates start from the static classifier (Summary ranks:
   how suspicious the racing pair looks) and are updated by the
   evidence the search accumulates: repeated failures to extend at a
   site decay its estimate, deeper preemption nests pay the paper's
   fewest-preemptions prior.

   Causality Analysis takes no part: it tests every flip, so the order
   of its flips changes no verdict. *)

let entropy p =
  if p <= 0. || p >= 1. then 0.
  else
    let q = 1. -. p in
    -.((p *. log p) +. (q *. log q)) /. log 2.

let serial_gain ~index =
  (* The first serial execution seeds the whole cross-thread race
     database: run it before anything else.  Later serials complete the
     database — threads whose guarded paths only execute under another
     start order contribute their accesses there — so they are worth
     more than any deeper (depth >= 2) extension, but less than a
     depth-1 extension of a lifetime/write-write pair, the class the
     corpus' minimal reproductions live in. *)
  if index = 0 then infinity else entropy 0.4

let extension_prior = function
  | 0 -> 0.42 (* lifetime: free/realloc against use *)
  | 1 -> 0.30 (* unguarded write-write *)
  | 2 -> 0.20 (* ambiguous locking *)
  | _ -> 0.12 (* consistently guarded / unranked *)

let extension_gain ~rank ~depth ~site_runs =
  let p =
    extension_prior rank
    *. (0.85 ** float_of_int (max 0 (depth - 1)))
    (* fewest-preemptions prior: each extra preemption is less likely
       to be the minimal reproduction *)
    *. (0.6 ** float_of_int site_runs)
    (* adaptive decay: a site that keeps not reproducing loses odds *)
  in
  entropy p
