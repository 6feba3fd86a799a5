module Texttable = Dhdl_util.Texttable
module Json = Dhdl_util.Json

type worker = {
  w_domain : int;
  w_points : int;
  w_wall_s : float;
  w_generate_s : float;
  w_probe_s : float;
  w_analyze_s : float;
  w_estimate_s : float;
  w_idle_s : float;
}

type t = {
  jobs : int;
  wall_s : float;
  setup_s : float;
  merge_s : float;
  write_s : float;
  workers : worker list;
}

let worker_seconds t = List.fold_left (fun acc w -> acc +. w.w_wall_s) 0.0 t.workers

let work_s w = w.w_generate_s +. w.w_probe_s +. w.w_analyze_s +. w.w_estimate_s

(* Fractions are taken over the accounted categories (not raw wall) so
   that work + stall = 1 exactly even when clock granularity makes them
   sum to slightly more or less than the measured wall time. Cache probes
   count as work: they replace the analysis/estimation they memoize. *)
let work_total t = List.fold_left (fun acc w -> acc +. work_s w) 0.0 t.workers

let stall_total t =
  List.fold_left (fun acc w -> acc +. w.w_idle_s) (t.merge_s +. t.write_s) t.workers

let frac t part =
  let accounted = work_total t +. stall_total t in
  if accounted > 0.0 then part /. accounted else 0.0

let work_fraction t = frac t (work_total t)
let stall_fraction t = frac t (stall_total t)
let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile: jobs=%d, wall %.3f s (setup %.3f s), worker-seconds %.3f\n" t.jobs
       t.wall_s t.setup_s (worker_seconds t));
  Buffer.add_string buf
    (Printf.sprintf "  attribution: work %s  stall %s\n" (pct (work_fraction t))
       (pct (stall_fraction t)));
  Buffer.add_string buf
    (Printf.sprintf "  worker 0 bookkeeping: merge %.4f s, checkpoint write %.4f s\n" t.merge_s
       t.write_s);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Texttable.render
       ~header:
         [ "worker"; "points"; "wall s"; "generate s"; "cache-probe s"; "lint/absint s";
           "estimate s"; "idle s" ]
       (List.map
          (fun w ->
            [ Printf.sprintf "w%d" w.w_domain; string_of_int w.w_points;
              Printf.sprintf "%.4f" w.w_wall_s; Printf.sprintf "%.4f" w.w_generate_s;
              Printf.sprintf "%.4f" w.w_probe_s; Printf.sprintf "%.4f" w.w_analyze_s;
              Printf.sprintf "%.4f" w.w_estimate_s; Printf.sprintf "%.4f" w.w_idle_s ])
          t.workers));
  Buffer.contents buf

let to_json t =
  let num x = Json.Float x in
  let worker w =
    Json.Obj
      [
        ("domain", Json.Int w.w_domain);
        ("points", Json.Int w.w_points);
        ("wall_s", num w.w_wall_s);
        ("generate_s", num w.w_generate_s);
        ("probe_s", num w.w_probe_s);
        ("analyze_s", num w.w_analyze_s);
        ("estimate_s", num w.w_estimate_s);
        ("idle_s", num w.w_idle_s);
      ]
  in
  Json.Obj
    [
      ("jobs", Json.Int t.jobs);
      ("wall_s", num t.wall_s);
      ("setup_s", num t.setup_s);
      ("worker_seconds", num (worker_seconds t));
      ("work_frac", num (work_fraction t));
      ("stall_frac", num (stall_fraction t));
      ("merge_s", num t.merge_s);
      ("write_s", num t.write_s);
      ("workers", Json.List (List.map worker t.workers));
    ]
