(* Design-space exploration of the paper's running example (GDA, Figures
   2-4): sample the legal space of tile sizes, parallelization factors and
   MetaPipe toggles, print the Pareto frontier, and validate the best design
   against the simulated toolchain — the full Figure 1 flow for one app.

     dune exec examples/gda_exploration.exe
*)

module App = Dhdl_apps.App
module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval

let () =
  let app = Dhdl_apps.Registry.find "gda" in
  let sizes = app.App.paper_sizes in
  let space = app.App.space sizes in
  Printf.printf "GDA design space: %s raw points across %d parameters\n"
    (Dhdl_util.Texttable.fmt_int_commas (Dhdl_dse.Space.raw_size space))
    (List.length (Dhdl_dse.Space.dims space));

  Printf.printf "setting up the estimator (characterization + NN training)...\n%!";
  let ev = Eval.create (Estimator.create ~train_samples:160 ~epochs:300 ()) in

  let result =
    Explore.run
      (Explore.Config.make ~seed:2016 ~max_points:1500 ())
      ev ~space
      ~generate:(fun p -> app.App.generate ~sizes ~params:p)
  in
  Printf.printf "explored %d legal points in %.2f s (%.2f ms per design)\n\n"
    result.Explore.sampled result.Explore.elapsed_seconds
    (Explore.seconds_per_design result *. 1000.0);

  print_string
    (Dhdl_core.Experiments.render_fig5
       [ { Dhdl_core.Experiments.app_name = "gda"; result } ]);

  (* Ground-truth the best design. *)
  match Explore.best result with
  | None -> print_endline "no valid design found"
  | Some best ->
    let design = app.App.generate ~sizes ~params:best.Explore.point in
    let report = Dhdl_synth.Toolchain.synthesize design in
    let sim = Dhdl_sim.Perf_sim.simulate design in
    let e = best.Explore.estimate in
    Printf.printf "\nbest design: %s\n"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) best.Explore.point));
    Printf.printf "  estimated: %d ALMs, %.3e cycles\n"
      e.Estimator.area.Estimator.alms e.Estimator.cycles;
    Printf.printf "  actual   : %d ALMs, %.3e cycles (%.1f%% / %.1f%% error)\n"
      report.Dhdl_synth.Report.alms sim.Dhdl_sim.Perf_sim.cycles
      (Dhdl_util.Stats.percent_error
         ~actual:(float_of_int report.Dhdl_synth.Report.alms)
         ~predicted:(float_of_int e.Estimator.area.Estimator.alms))
      (Dhdl_util.Stats.percent_error ~actual:sim.Dhdl_sim.Perf_sim.cycles
         ~predicted:e.Estimator.cycles);
    let cpu = Dhdl_cpu.Cost_model.seconds (app.App.cpu_workload sizes) in
    Printf.printf "  speedup over the 6-core CPU baseline: %.2fx (paper: 4.55x)\n"
      (cpu /. sim.Dhdl_sim.Perf_sim.seconds)
