(* Retry/quorum policy and accounting for the resilient executor. *)

type policy = {
  max_retries : int;
  quorum : int;
  backoff_base : float;
}

let default_policy = { max_retries = 3; quorum = 3; backoff_base = 0.05 }

let policy_for ~faulted max_retries =
  if (not faulted) && max_retries = None then None
  else
    let max_retries =
      Option.value ~default:default_policy.max_retries max_retries
    in
    (* No retry budget, no quorum either: [max_retries = 0] means
       "accept whatever a single attempt produced, degraded". *)
    let quorum = if max_retries = 0 then 1 else default_policy.quorum in
    Some { default_policy with max_retries; quorum }

type stats = {
  mutable retries : int;
  mutable gave_up : int;
  mutable quorum_runs : int;
  mutable quorum_disagreements : int;
  mutable low_confidence : int;
  mutable backoff_simulated : float;
}

type t = {
  policy : policy;
  stats : stats;
}

let create ?(policy = default_policy) () =
  { policy;
    stats =
      { retries = 0; gave_up = 0; quorum_runs = 0; quorum_disagreements = 0;
        low_confidence = 0; backoff_simulated = 0. } }

let degraded t = t.stats.gave_up > 0 || t.stats.low_confidence > 0

let pp_stats ppf t =
  Fmt.pf ppf "retries=%d gave_up=%d quorum_runs=%d disagreements=%d"
    t.stats.retries t.stats.gave_up t.stats.quorum_runs
    t.stats.quorum_disagreements
