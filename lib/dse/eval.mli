(** The one way to turn a design (or a design-space point) into an
    outcome.

    [Eval] owns the generate -> lint -> estimate pipeline that
    used to be spliced inline into [Explore], the serve supervisor,
    [bin/dhdl] and the benches. Every caller now goes through a shared
    [Eval.t], which keys each elaborated design by its canonical
    {!Dhdl_model.Design_key} and memoizes the two expensive stages behind
    bounded content-addressed caches:

    - {b analysis} verdicts (the full {!Dhdl_lint.Lint.check}: validator,
      heuristic passes and proof passes) are keyed by the design key, so
      any two points that elaborate to the same graph share one proof
      effort — across sweeps, resumed sessions and server requests alike;
    - {b estimates} (area/cycles plus fit and utilization) are keyed by
      the full design key, which makes repeated, overlapping or resumed
      sweeps near-free once warm.

    Cached values are pure functions of their key (one [Eval.t] wraps one
    estimator, hence one device and one trained correction), so results
    are bit-identical with the cache cold, warm, or disabled; eviction is
    deterministic FIFO in insertion order. When fault injection is armed
    ([Faults.active ()]) both caches are bypassed entirely — injected
    faults are keyed per call site and per point, and serving a memoized
    result would replay another point's fault decision.

    Thread-safety: an [Eval.t] may be shared freely across domains (the
    parallel sweep engine and the serve supervisor both do); the caches
    are mutex-guarded and hit/miss accounting is atomic. *)

module Estimator = Dhdl_model.Estimator

(** Per-pipeline-stage wall-second accumulators, written only when a
    caller passes [?stages] (the profiled sweep path). [s_probe] is the
    time spent deriving keys and probing/filling the caches — kept apart
    from [s_analyze] so cache overhead never masquerades as analysis
    work in [Profile]'s attribution. *)
type stages = {
  mutable s_generate : float;
  mutable s_probe : float;
  mutable s_analyze : float;
  mutable s_estimate : float;
}

val fresh_stages : unit -> stages

type t

(** Cumulative cache accounting across both caches since [create]. *)
type stats = { hits : int; misses : int; evictions : int }

(** [create est] wraps an estimator in an evaluation pipeline. [cap]
    bounds each of the two caches (entries, not bytes); a cap of [0]
    disables both. The default holds a full paper-scale sweep (75k
    points) without eviction. *)
val create : ?cap:int -> Estimator.t -> t

(** The wrapped estimator, for callers that need device/board facts or
    the uncorrected model (degraded serve replies, utilization math). *)
val estimator : t -> Estimator.t

val stats : t -> stats

(** [evaluate t ~index ~generate point] runs the full barriered
    pipeline for one design-space point — generate, the full
    {!Dhdl_lint.Lint.check}, estimate — where every failure mode becomes
    a classified {!Outcome.entry} instead of an exception.
    [index] keys the deterministic fault-injection sites
    ([dse.generator] / [dse.lint] / [dse.estimator] / [dse.non_finite])
    so a resumed or parallel sweep replays the same faults at the same
    points. *)
val evaluate :
  t ->
  ?stages:stages ->
  index:int ->
  generate:(Space.point -> Dhdl_ir.Ir.design) ->
  Space.point ->
  Outcome.entry

(** [estimate t design] is the single-design entry point (CLI estimate /
    compare, serve requests, benches): a corrected estimate through the
    estimate cache. [~cache:false] forces a fresh run of the estimator —
    measurement paths (Table IV timings, microbenches) use it so cached
    repeats never flatter the paper's ms-per-design numbers. *)
val estimate : ?cache:bool -> t -> Dhdl_ir.Ir.design -> Estimator.estimate

(** [evaluation t point design] is {!estimate} plus fit and utilization,
    packaged as an {!Outcome.evaluation} (no fault sites, no exception
    barrier — callers that need those use {!evaluate}). *)
val evaluation :
  ?cache:bool -> t -> Space.point -> Dhdl_ir.Ir.design -> Outcome.evaluation
