(* Sweep-profiler suite: bounded histogram reservoirs, multi-domain
   telemetry merging with per-track identity, the JSONL re-import path,
   and the sweep time-attribution record — including the guarantee that
   profiling never perturbs results or checkpoint bytes. Runs under both
   `dune runtest` and the focused `dune build @profile` pre-merge alias. *)

module Obs = Dhdl_obs.Obs
module Explore = Dhdl_dse.Explore
module Profile = Dhdl_dse.Profile
module Eval = Dhdl_dse.Eval
module Estimator = Dhdl_model.Estimator
module App = Dhdl_apps.App

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fake = ref 0.0
let advance_ms ms = fake := !fake +. (ms /. 1000.0)

let with_sink ?hist_cap ?(fake_clock = false) f =
  fake := 0.0;
  if fake_clock then Obs.enable ~clock:(fun () -> !fake) ?hist_cap ()
  else Obs.enable ?hist_cap ();
  Fun.protect ~finally:Obs.disable f

(* ------------------------- bounded reservoirs ------------------------- *)

let test_reservoir_cap () =
  with_sink ~hist_cap:8 @@ fun () ->
  for i = 1 to 100 do
    Obs.observe "h" (float_of_int i)
  done;
  let snap = Obs.snapshot () in
  let kept = List.assoc "h" snap.Obs.snap_hists in
  check_int "kept samples bounded by cap" 8 (Array.length kept);
  check_int "true total exact" 100 (List.assoc "h" snap.Obs.snap_hist_totals);
  (* Every kept sample is a genuine member of the stream. *)
  Array.iter (fun v -> check_bool "kept sample from stream" true (v >= 1.0 && v <= 100.0)) kept;
  let jsonl = Obs.to_jsonl snap in
  check_bool "jsonl exports true count" true (contains jsonl "\"count\":100");
  check_bool "jsonl exports kept size" true (contains jsonl "\"sampled\":8")

let test_reservoir_below_cap_keeps_all () =
  with_sink ~hist_cap:8 @@ fun () ->
  List.iter (Obs.observe "h") [ 3.0; 1.0; 4.0 ];
  let snap = Obs.snapshot () in
  Alcotest.(check (array (float 1e-9)))
    "insertion order, nothing dropped" [| 3.0; 1.0; 4.0 |]
    (List.assoc "h" snap.Obs.snap_hists);
  check_int "total equals kept" 3 (List.assoc "h" snap.Obs.snap_hist_totals)

let test_reservoir_deterministic () =
  let run () =
    with_sink ~hist_cap:8 @@ fun () ->
    for i = 1 to 1000 do
      Obs.observe "h" (float_of_int i)
    done;
    List.assoc "h" (Obs.snapshot ()).Obs.snap_hists
  in
  (* The reservoir RNG is seeded from the histogram name, so two identical
     streams keep identical samples — summaries are reproducible. *)
  Alcotest.(check (array (float 1e-9))) "same stream, same reservoir" (run ()) (run ())

let test_reservoir_merges_across_buffers () =
  with_sink ~hist_cap:8 @@ fun () ->
  Obs.with_domain_buffer ~track:1 (fun () ->
      for i = 1 to 100 do
        Obs.observe "h" (float_of_int i)
      done);
  Obs.with_domain_buffer ~track:2 (fun () ->
      for i = 101 to 200 do
        Obs.observe "h" (float_of_int i)
      done);
  let snap = Obs.snapshot () in
  check_bool "kept bounded" true (Array.length (List.assoc "h" snap.Obs.snap_hists) <= 8);
  check_int "true total survives both merges" 200 (List.assoc "h" snap.Obs.snap_hist_totals)

(* ---------------------- multi-domain telemetry ------------------------ *)

let domains = 4
let per_domain = 500

let concurrent_snapshot () =
  with_sink @@ fun () ->
  let doms =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            Obs.with_domain_buffer ~track:(k + 1) (fun () ->
                for i = 1 to per_domain do
                  Obs.count "mt.events";
                  Obs.observe "mt.val" (float_of_int i);
                  Obs.span "mt.span" (fun () -> ())
                done)))
  in
  List.iter Domain.join doms;
  Obs.snapshot ()

let test_concurrent_merge_no_loss () =
  let snap = concurrent_snapshot () in
  check_int "counter total: no lost or duplicated increments" (domains * per_domain)
    (List.assoc "mt.events" snap.Obs.snap_counters);
  check_int "histogram true total exact" (domains * per_domain)
    (List.assoc "mt.val" snap.Obs.snap_hist_totals);
  check_int "every span flushed exactly once" (domains * per_domain)
    (List.length snap.Obs.snap_spans)

let test_concurrent_merge_tracks () =
  let snap = concurrent_snapshot () in
  List.iter
    (fun k ->
      let track = k + 1 in
      let spans = List.filter (fun sp -> sp.Obs.sp_track = track) snap.Obs.snap_spans in
      check_int (Printf.sprintf "track %d span count" track) per_domain (List.length spans);
      (* Sequence numbers are assigned at flush under the sink lock, so
         within a track they are strictly increasing in snapshot order. *)
      ignore
        (List.fold_left
           (fun prev sp ->
             check_bool "per-track seq strictly monotone" true (sp.Obs.sp_seq > prev);
             sp.Obs.sp_seq)
           (-1) spans))
    (List.init domains Fun.id)

let test_concurrent_equals_single_domain () =
  let par = concurrent_snapshot () in
  let seq =
    with_sink @@ fun () ->
    for _ = 1 to domains do
      for i = 1 to per_domain do
        Obs.count "mt.events";
        Obs.observe "mt.val" (float_of_int i)
      done
    done;
    Obs.snapshot ()
  in
  check_int "counter total matches a single-domain run"
    (List.assoc "mt.events" seq.Obs.snap_counters)
    (List.assoc "mt.events" par.Obs.snap_counters);
  check_int "histogram total matches a single-domain run"
    (List.assoc "mt.val" seq.Obs.snap_hist_totals)
    (List.assoc "mt.val" par.Obs.snap_hist_totals)

(* Tracks are parameters of [with_domain_buffer], so the per-lane trace
   layout is checked deterministically under a fake clock without racing
   real domains. *)
let test_chrome_trace_tracks_golden () =
  let snap =
    with_sink ~fake_clock:true @@ fun () ->
    Obs.span "collect" (fun () -> advance_ms 1.0);
    Obs.with_domain_buffer ~track:1 (fun () -> Obs.span "point" (fun () -> advance_ms 2.0));
    Obs.with_domain_buffer ~track:2 (fun () -> Obs.span "point" (fun () -> advance_ms 3.0));
    Obs.snapshot ()
  in
  let expected =
    "{\"traceEvents\":[\n"
    ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"dhdl\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"worker 1\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"worker 2\"}},\n"
    ^ "{\"name\":\"collect\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":1000.000,\"args\":{}},\n"
    ^ "{\"name\":\"point\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1000.000,\"dur\":2000.000,\"args\":{}},\n"
    ^ "{\"name\":\"point\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":3000.000,\"dur\":3000.000,\"args\":{}}\n"
    ^ "],\"displayTimeUnit\":\"ms\"}\n"
  in
  check_string "per-domain tid lanes" expected (Obs.to_chrome_trace snap)

(* ------------------------- JSONL re-import ---------------------------- *)

let test_summary_from_jsonl_roundtrip () =
  let snap =
    with_sink ~fake_clock:true @@ fun () ->
    Obs.span "work" (fun () -> advance_ms 2.0);
    Obs.count ~by:3 "c";
    Obs.gauge "g" 1.5;
    List.iter (Obs.observe "lat") [ 1.0; 2.0; 9.0 ];
    Obs.snapshot ()
  in
  let live = Obs.render_summary snap in
  match Obs.summary_of_jsonl (Obs.to_jsonl snap) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok rendered ->
    (* The post-hoc summary reproduces every aggregate table of the live
       one (span rollups rebuild from the exported span events). *)
    check_string "summary identical to live render" live rendered

(* An attribute value ending in a backslash renders as an escaped
   backslash right before the closing quote; the reader must not take that
   quote for an escaped one. *)
let test_summary_from_jsonl_trailing_backslash () =
  let snap =
    with_sink ~fake_clock:true @@ fun () ->
    Obs.span "work" ~attrs:[ ("path", "C:\\") ] (fun () -> advance_ms 1.0);
    Obs.snapshot ()
  in
  match Obs.summary_of_jsonl (Obs.to_jsonl snap) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok rendered -> check_string "summary identical to live render" (Obs.render_summary snap) rendered

let test_summary_from_jsonl_rejects_garbage () =
  (match Obs.summary_of_jsonl "{\"type\":\"counter\",\"name\":\"c\",\"value\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg -> check_bool "error names the line" true (contains msg "line 2"));
  match Obs.summary_of_jsonl "{\"type\":\"histogram\",\"name\":\"h\"}\n" with
  | Ok _ -> Alcotest.fail "missing fields accepted"
  | Error msg -> check_bool "error mentions the field" true (contains msg "line 1")

(* ------------------------- sweep attribution -------------------------- *)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

let run_sweep ?checkpoint ?(jobs = 1) ?(profile = true) ?(max_points = 60) est =
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  let cfg = Explore.Config.make ~seed:11 ~max_points ?checkpoint ~jobs ~profile () in
  Explore.run cfg (Eval.create est)
    ~space:(app.App.space sizes)
    ~generate:(fun p -> app.App.generate ~sizes ~params:p)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_profile_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let attr_of (r : Explore.result) =
  match r.Explore.attribution with
  | Some a -> a
  | None -> Alcotest.fail "profiled sweep returned no attribution"

let check_fractions attr =
  let sum = Profile.work_fraction attr +. Profile.stall_fraction attr in
  Alcotest.(check (float 1e-9)) "work + stall = 1" 1.0 sum

let test_off_by_default () =
  let r = run_sweep ~profile:false (Lazy.force estimator) in
  check_bool "no attribution unless asked" true (r.Explore.attribution = None)

let test_sequential_attribution () =
  (* Note: the Obs sink is disabled here — attribution must not depend on
     telemetry being on. *)
  let r = run_sweep (Lazy.force estimator) in
  let attr = attr_of r in
  check_int "one worker at jobs=1" 1 (List.length attr.Profile.workers);
  let w = List.hd attr.Profile.workers in
  check_int "worker owns every processed point" r.Explore.processed w.Profile.w_points;
  check_bool "stages measured" true
    (w.Profile.w_generate_s +. w.Profile.w_analyze_s +. w.Profile.w_estimate_s > 0.0);
  check_fractions attr

let test_parallel_attribution () =
  let r = run_sweep ~jobs:3 (Lazy.force estimator) in
  let attr = attr_of r in
  check_int "one record per worker domain" 3 (List.length attr.Profile.workers);
  check_int "cursor claims partition the points" r.Explore.processed
    (List.fold_left (fun acc w -> acc + w.Profile.w_points) 0 attr.Profile.workers);
  check_fractions attr

(* The profile covers the whole run: sampling and the gate derivation sit
   in [setup_s], and the wall runs through the final checkpoint. *)
let test_attribution_covers_run () =
  let r = run_sweep ~checkpoint:(tmp "covers.jsonl") (Lazy.force estimator) in
  let attr = attr_of r in
  check_bool "gate derivation attributed to setup" true (attr.Profile.setup_s > 0.0);
  check_bool "profile wall spans the run" true
    (attr.Profile.wall_s >= 0.99 *. r.Explore.elapsed_seconds);
  check_bool "final checkpoint write attributed" true (attr.Profile.write_s > 0.0)

let test_profiling_keeps_checkpoints_bit_identical () =
  let est = Lazy.force estimator in
  let plain = tmp "plain.jsonl" and p1 = tmp "prof1.jsonl" and p4 = tmp "prof4.jsonl" in
  let a = run_sweep ~checkpoint:plain ~profile:false est in
  let b = run_sweep ~checkpoint:p1 est in
  let c = run_sweep ~checkpoint:p4 ~jobs:4 est in
  check_bool "evaluations unchanged by profiling" true
    (a.Explore.evaluations = b.Explore.evaluations
    && b.Explore.evaluations = c.Explore.evaluations);
  check_string "profiled jobs=1 checkpoint matches unprofiled" (read_file plain) (read_file p1);
  check_string "profiled jobs=4 checkpoint matches unprofiled" (read_file plain) (read_file p4)

let test_attribution_with_obs_instrumentation () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r = run_sweep ~jobs:2 (Lazy.force estimator) in
  let attr = attr_of r in
  check_fractions attr;
  (* With both profiling and the sink on, cursor claims surface as
     per-domain counters that partition the processed points. *)
  check_int "claim counters partition the points" r.Explore.processed
    (Obs.counter_value "dse.claims.w0" + Obs.counter_value "dse.claims.w1")

let test_attribution_json () =
  let r = run_sweep ~jobs:2 (Lazy.force estimator) in
  let json = Dhdl_util.Json.render (Profile.to_json (attr_of r)) in
  List.iter
    (fun needle -> check_bool ("json has " ^ needle) true (contains json needle))
    [ "\"jobs\":2"; "\"setup_s\":"; "\"work_frac\":"; "\"stall_frac\":"; "\"merge_s\":";
      "\"write_s\":"; "\"workers\":[" ]

let () =
  Alcotest.run "profile"
    [
      ( "reservoir",
        [
          Alcotest.test_case "cap and true total" `Quick test_reservoir_cap;
          Alcotest.test_case "below cap keeps all" `Quick test_reservoir_below_cap_keeps_all;
          Alcotest.test_case "deterministic" `Quick test_reservoir_deterministic;
          Alcotest.test_case "merges across buffers" `Quick test_reservoir_merges_across_buffers;
        ] );
      ( "multi-domain",
        [
          Alcotest.test_case "no lost or duplicated events" `Quick test_concurrent_merge_no_loss;
          Alcotest.test_case "per-track identity and order" `Quick test_concurrent_merge_tracks;
          Alcotest.test_case "totals equal single-domain run" `Quick
            test_concurrent_equals_single_domain;
          Alcotest.test_case "chrome trace lanes golden" `Quick test_chrome_trace_tracks_golden;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "summary roundtrip" `Quick test_summary_from_jsonl_roundtrip;
          Alcotest.test_case "trailing backslash in an attr" `Quick
            test_summary_from_jsonl_trailing_backslash;
          Alcotest.test_case "malformed input rejected" `Quick
            test_summary_from_jsonl_rejects_garbage;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          Alcotest.test_case "sequential split" `Quick test_sequential_attribution;
          Alcotest.test_case "parallel split" `Quick test_parallel_attribution;
          Alcotest.test_case "covers the whole run" `Quick test_attribution_covers_run;
          Alcotest.test_case "checkpoints bit-identical" `Quick
            test_profiling_keeps_checkpoints_bit_identical;
          Alcotest.test_case "obs instrumentation" `Quick test_attribution_with_obs_instrumentation;
          Alcotest.test_case "json payload" `Quick test_attribution_json;
        ] );
    ]
