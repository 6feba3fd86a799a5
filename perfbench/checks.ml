(* Correctness checks and the Table III accuracy metrics. A failed check
   is recorded as a problem and fails the run; it is never folded into a
   metric. *)

module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Estimator = Dhdl_model.Estimator
module Lint = Dhdl_lint.Lint
module App = Dhdl_apps.App
module Perf_sim = Dhdl_sim.Perf_sim
module Toolchain = Dhdl_synth.Toolchain
module Report = Dhdl_synth.Report
module Stats = Dhdl_util.Stats
module Rng = Dhdl_util.Rng

let problems : string list ref = ref []
let cycle_errs : float list ref = ref []
let alm_errs : float list ref = ref []

let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let show_point p = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p)

(* Bit-for-bit equality of two values holding floats (sharing ignored). *)
let same_bits a b =
  let bytes v = Marshal.to_string v [ Marshal.No_sharing ] in
  bytes a = bytes b

let generate (app : App.t) params = app.App.generate ~sizes:app.App.paper_sizes ~params

(* Every Pareto design: lint-clean under the full [Lint.check] with no
   gate in front, its reported estimate reproduced bit for bit by an
   uncached [Eval] call, and its estimate compared with the cycle-level
   simulator and the simulated toolchain. *)
let pareto ev (app : App.t) (front : Outcome.evaluation list) =
  let est = Eval.estimator ev in
  let dev = Estimator.device est and board = Estimator.board est in
  List.iter
    (fun (e : Outcome.evaluation) ->
      let p = e.Outcome.point in
      let design = generate app p in
      if Lint.has_errors (Lint.check ~dev design) then
        fail "%s Pareto design %s fails full lint" app.App.name (show_point p);
      if not (same_bits (Eval.evaluation ~cache:false ev p design) e) then
        fail "%s Pareto design %s: uncached estimate differs from the reported one" app.App.name
          (show_point p);
      let sim = Perf_sim.simulate ~dev ~board design in
      let rpt = Toolchain.synthesize ~dev design in
      cycle_errs :=
        Stats.percent_error ~actual:sim.Perf_sim.cycles ~predicted:e.Outcome.estimate.Estimator.cycles
        :: !cycle_errs;
      alm_errs :=
        Stats.percent_error ~actual:(float_of_int rpt.Report.alms)
          ~predicted:(float_of_int e.Outcome.estimate.Estimator.area.Estimator.alms)
        :: !alm_errs)
    front

(* A seeded sample of symbolically refuted points must fail concrete lint. *)
let refuted ~dev ~seed (app : App.t) points =
  let rng = Rng.create seed in
  let picks = if List.length points <= 4 then points else Rng.sample rng points 4 in
  List.iter
    (fun p ->
      if not (Lint.has_errors (Lint.check ~dev (generate app p))) then
        fail "%s point %s was refuted symbolically but is lint-clean" app.App.name (show_point p))
    picks

let mean_err errs = Stats.mean !errs
