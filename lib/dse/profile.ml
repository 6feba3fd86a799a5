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
  w_send_block_s : float;
  w_idle_s : float;
}

type collector = {
  c_wall_s : float;
  c_recv_block_s : float;
  c_reorder_stall_s : float;
  c_write_s : float;
  c_merge_s : float;
}

type t = {
  jobs : int;
  wall_s : float;
  workers : worker list;
  collector : collector;
  max_queue_depth : int;
  max_reorder_occupancy : int;
}

let worker_seconds t = List.fold_left (fun acc w -> acc +. w.w_wall_s) 0.0 t.workers

(* Fractions are taken over the sum of the six accounted categories (not
   raw wall) so that work + contention + stall = 1 exactly even when clock
   granularity makes the categories sum to slightly more or less than the
   measured wall time. Cache probes count as work: they replace the
   analysis/estimation they memoize. *)
let accounted t =
  List.fold_left
    (fun acc w ->
      acc +. w.w_generate_s +. w.w_probe_s +. w.w_analyze_s +. w.w_estimate_s +. w.w_send_block_s
      +. w.w_idle_s)
    0.0 t.workers

let frac t part = if accounted t > 0.0 then part /. accounted t else 0.0

let work_fraction t =
  frac t
    (List.fold_left
       (fun acc w -> acc +. w.w_generate_s +. w.w_probe_s +. w.w_analyze_s +. w.w_estimate_s)
       0.0 t.workers)

let contention_fraction t =
  frac t (List.fold_left (fun acc w -> acc +. w.w_send_block_s) 0.0 t.workers)

let stall_fraction t = frac t (List.fold_left (fun acc w -> acc +. w.w_idle_s) 0.0 t.workers)

(* The resources a sweep can contend on, with the seconds lost to each:
   the worker side of the collector channel (send block), the collector
   side (recv block counts only against scaling when the collector is the
   bottleneck, but it is the number to watch), and the checkpoint write. *)
let contenders t =
  [
    ("collector-channel send", List.fold_left (fun a w -> a +. w.w_send_block_s) 0.0 t.workers);
    ("collector-channel recv", t.collector.c_recv_block_s);
    ("reorder buffer", t.collector.c_reorder_stall_s);
    ("checkpoint write", t.collector.c_write_s);
  ]

let top_contender t =
  List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("none", 0.0) (contenders t)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile: jobs=%d, wall %.3f s, worker-seconds %.3f\n" t.jobs t.wall_s
       (worker_seconds t));
  Buffer.add_string buf
    (Printf.sprintf "  attribution: work %s  contention %s  stall %s\n" (pct (work_fraction t))
       (pct (contention_fraction t))
       (pct (stall_fraction t)));
  let name, secs = top_contender t in
  Buffer.add_string buf (Printf.sprintf "  top contended resource: %s (%.4f s)\n" name secs);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Texttable.render
       ~header:
         [ "worker"; "points"; "wall s"; "generate s"; "cache-probe s"; "lint/absint s";
           "estimate s"; "send-block s"; "idle s" ]
       (List.map
          (fun w ->
            [ Printf.sprintf "w%d" w.w_domain; string_of_int w.w_points;
              Printf.sprintf "%.4f" w.w_wall_s; Printf.sprintf "%.4f" w.w_generate_s;
              Printf.sprintf "%.4f" w.w_probe_s; Printf.sprintf "%.4f" w.w_analyze_s;
              Printf.sprintf "%.4f" w.w_estimate_s; Printf.sprintf "%.4f" w.w_send_block_s;
              Printf.sprintf "%.4f" w.w_idle_s ])
          t.workers));
  let c = t.collector in
  Buffer.add_string buf
    (Printf.sprintf
       "  collector: wall %.4f s — recv-block %.4f s, checkpoint write %.4f s, merge %.4f s\n"
       c.c_wall_s c.c_recv_block_s c.c_write_s c.c_merge_s);
  Buffer.add_string buf
    (Printf.sprintf
       "  reorder buffer: %.4f s total parked latency (overlaps recv-block), max occupancy %d; \
        channel max depth %d\n"
       c.c_reorder_stall_s t.max_reorder_occupancy t.max_queue_depth);
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
        ("send_block_s", num w.w_send_block_s);
        ("idle_s", num w.w_idle_s);
      ]
  in
  let c = t.collector in
  let top_name, top_s = top_contender t in
  Json.Obj
    [
      ("jobs", Json.Int t.jobs);
      ("wall_s", num t.wall_s);
      ("worker_seconds", num (worker_seconds t));
      ("work_frac", num (work_fraction t));
      ("contention_frac", num (contention_fraction t));
      ("stall_frac", num (stall_fraction t));
      ("top_contender", Json.Str top_name);
      ("top_contender_s", num top_s);
      ("workers", Json.List (List.map worker t.workers));
      ( "collector",
        Json.Obj
          [
            ("wall_s", num c.c_wall_s);
            ("recv_block_s", num c.c_recv_block_s);
            ("reorder_stall_s", num c.c_reorder_stall_s);
            ("write_s", num c.c_write_s);
            ("merge_s", num c.c_merge_s);
          ] );
      ("max_queue_depth", Json.Int t.max_queue_depth);
      ("max_reorder_occupancy", Json.Int t.max_reorder_occupancy);
    ]
