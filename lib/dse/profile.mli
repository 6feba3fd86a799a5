(** Sweep attribution: where every second of a profiled {!Explore.run}
    went.

    The taxonomy (see DESIGN.md):
    {ul
    {- [setup] covers sampling, the resume load and the symbolic gate's
       derivation — everything before the first point is claimed;}
    {- each worker's time splits into [generate] (design elaboration),
       [cache-probe] (deriving design keys and probing/filling the
       {!Eval} caches), [analyze] (lint + abstract interpretation),
       [estimate] (the area/cycle/NN estimator) — together {e work} — and
       [idle] (the residual: cursor claims, fault-key bookkeeping, loop
       overhead, and worker 0 waiting to join the others);}
    {- worker 0, the calling domain, also records every outcome in
       sampling-index order ([merge]) and writes the checkpoints
       ([write]). Idle, merge and write together are {e stall}.}}

    Worker 0's wall runs from the first claim through the final
    checkpoint, so [setup_s] plus worker 0's wall is the whole run.
    Attribution is measured with plain [Unix.gettimeofday] stamps
    accumulated into per-worker records that only the owning domain
    writes, so profiling itself adds no cross-domain contention; it is
    entirely independent of the {!Dhdl_obs.Obs} sink. *)

type worker = {
  w_domain : int;  (** Worker index, 0-based; worker 0 is the calling domain. *)
  w_points : int;  (** Points this worker computed (over chunked claims). *)
  w_wall_s : float;  (** The worker's own wall-clock span. *)
  w_generate_s : float;
  w_probe_s : float;
      (** Design-key derivation + {!Eval} cache probes and fills — kept
          apart from [w_analyze_s] so memoization overhead never
          masquerades as analysis work. *)
  w_analyze_s : float;  (** Lint + absint + dependence checking (misses only). *)
  w_estimate_s : float;
  w_idle_s : float;
      (** Residual: wall minus the four above (and, for worker 0, minus
          merge and write), clamped at 0. *)
}

type t = {
  jobs : int;
  wall_s : float;  (** The whole run, from sampling through the final checkpoint. *)
  setup_s : float;  (** Sampling, resume load and {!Symgate.derive}. *)
  merge_s : float;  (** Worker 0 recording outcomes in sampling-index order. *)
  write_s : float;  (** Checkpoint serialization + atomic rename (worker 0). *)
  workers : worker list;  (** One per computing domain, in index order. *)
}

val worker_seconds : t -> float
(** Sum of per-worker wall spans (the denominator of scaling math). *)

val work_fraction : t -> float
(** Share of accounted worker time doing real work
    (generate + cache-probe + analyze + estimate). *)

val stall_fraction : t -> float
(** Share of accounted worker time spent on anything else (idle, merge,
    write). [work_fraction + stall_fraction = 1.0] up to float rounding
    (fractions are taken over the accounted sum, not raw wall time). *)

val render : t -> string
(** Human-readable attribution report: headline fractions, worker 0's
    bookkeeping, and a per-worker table. *)

val to_json : t -> Dhdl_util.Json.t
(** The whole record as one JSON object (fractions included), embeddable
    in [dhdl profile --json] and BENCH_dse.json. *)
