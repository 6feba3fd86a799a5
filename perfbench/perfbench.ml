(* The DSE benchmark. See README.md for the workloads, the metrics and the
   layer -> metric -> workload map.

     perfbench --workload cold-proof|cold-light|serve-sessions
               --seed N --seconds S --trace 0|1

   With --trace 0 the workload runs untraced and prints the end-to-end
   metrics. With --trace 1 it runs the same untraced workload first, then
   replays exactly the same sweeps and requests through [Layers] with a
   span around every layer call, and prints the per-layer metrics. The last
   line of stdout is one JSON object; the exit code is 1 when a correctness
   check failed. *)

module Eval = Dhdl_dse.Eval
module Explore = Dhdl_dse.Explore
module Outcome = Dhdl_dse.Outcome
module Space = Dhdl_dse.Space
module Symgate = Dhdl_dse.Symgate
module Checkpoint = Dhdl_dse.Checkpoint
module Symbolic = Dhdl_absint.Symbolic
module Estimator = Dhdl_model.Estimator
module Characterization = Dhdl_model.Characterization
module Nn_correction = Dhdl_model.Nn_correction
module Target = Dhdl_device.Target
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Rng = Dhdl_util.Rng
module Server = Dhdl_serve.Server
module Client = Dhdl_serve.Client
module Sup = Dhdl_serve.Supervisor
module Session = Dhdl_serve.Session
module P = Dhdl_serve.Protocol
module Json = Dhdl_serve.Json
module Stats = Dhdl_util.Stats

let now = Trace.now
let all_apps = [ "gda"; "gemm"; "kmeans"; "outerprod"; "dotproduct"; "tpchq6"; "blackscholes" ]

(* ------------------------------------------------------------------ *)
(* Workload parameters                                                 *)
(* ------------------------------------------------------------------ *)

(* The estimator trains once per process with the fixed seed, on the
   default 200-sample corpus, exactly as [dhdl dse] does. *)
let train_seed = 2016

(* Set-up is repeated and its median reported. *)
let setup_reps = 3

(* Reference-kernel slices taken at each edge of an interval during which
   the kernel cannot run (set-up, a served sweep, before a cold sweep). *)
let edge_slices = 16

(* cold-proof: sampled points per sweep. *)
let proof_points = 300

(* cold-light sweeps the full legal spaces (the default budget). *)
let light_points = Explore.Config.default.Explore.Config.max_points

(* serve-sessions: points per session; after each session, [fresh_batches]
   estimate_batch requests of new points (cache misses) and
   [repeat_batches] that resend one of them (cache hits), [specs_per_batch]
   points each. A fifth of the requests are misses, so the p50 is a hit
   and the p90 is the median miss, the steadiest place for it. *)
let session_points = 1000
let fresh_batches = 20
let repeat_batches = 80
let specs_per_batch = 32

(* Bounds on the sleep between dse_status polls. *)
let poll_min_s = 0.005
let poll_max_s = 0.2

(* Work per run is fixed from --seconds: whole rounds (cold) or units
   (serve-sessions), one per this many seconds. A cold-light round takes
   about 1.1 s on a 2-core host; it is counted as 1.5 s to keep runs short,
   as its figures are the steadiest. Every run of every commit then measures the same points, so memory and
   accuracy do not depend on how fast the host or the program is. Each
   serve-sessions unit has a server of its own: one server's memo would
   grow with every unit, and it keeps every accepted connection open until
   it drains, while a select-based peer fails past 1,024 descriptors. *)
let proof_round_s = 7.0
let light_round_s = 1.5
let serve_unit_s = 15.0

let rounds_for ~seconds round_s = max 1 (int_of_float (Float.round (seconds /. round_s)))

(* Scratch state lives in the working directory; the socket path is
   relative so it stays short wherever the checkout is. *)
let work_dir = ".perfbench_work"

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_work_dir () =
  rm_rf work_dir;
  Unix.mkdir work_dir 0o755

(* Process high-water resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let app_named = Registry.find

(* A sweep seed drawn from the workload seed. *)
let sweep_seed rng = Rng.int rng 1_000_000_000

type acc = {
  mutable points : int;  (* points attempted *)
  mutable requests : int;  (* requests attempted *)
  mutable failed : int;  (* failed points + requests without an ok reply *)
  mutable sweep_s : float;  (* reference seconds of sweep time *)
  mutable wall_s : float;  (* wall seconds of sweep time *)
  mutable req_wall_s : float;  (* wall seconds of requests *)
  lat_s : (string, float list ref) Hashtbl.t;  (* request (or point) latencies, per app *)
  per_app : (string, int * float) Hashtbl.t;  (* points, sweep seconds *)
}

let fresh_acc () =
  {
    points = 0;
    requests = 0;
    failed = 0;
    sweep_s = 0.0;
    wall_s = 0.0;
    req_wall_s = 0.0;
    lat_s = Hashtbl.create 8;
    per_app = Hashtbl.create 8;
  }

let add_app_time acc name points dt =
  let p, s = Option.value (Hashtbl.find_opt acc.per_app name) ~default:(0, 0.0) in
  Hashtbl.replace acc.per_app name (p + points, s +. dt)

let add_latency acc name dt =
  match Hashtbl.find_opt acc.lat_s name with
  | Some l -> l := dt :: !l
  | None -> Hashtbl.add acc.lat_s name (ref [ dt ])

let latencies acc = Hashtbl.fold (fun _ l acc -> !l @ acc) acc.lat_s []

(* A latency quantile in ms: the geometric mean over apps of each app's
   own quantile, so that the mix of fast and slow apps a sample happens
   to hold does not move it. *)
let latency_ms acc q =
  let per_app = Hashtbl.fold (fun _ l acc -> Trace.quantile q !l :: acc) acc.lat_s [] in
  1000.0 *. Stats.geomean per_app

let rate points secs = if secs > 0.0 then float_of_int points /. secs else 0.0

(* ------------------------------------------------------------------ *)
(* Set-up: template characterization + NN training                    *)
(* ------------------------------------------------------------------ *)

type setup = {
  est : Estimator.t;
  setup_s : float;
  characterize_s : float;
  nn_train_s : float;
}

(* Each repetition does what [Estimator.create] does, with its two parts
   timed: template characterization, called uncached ([Estimator.create]
   goes through [Characterization.default], which memoizes per device, so
   only a process's first repetition would pay for it), then NN training.
   Times are in reference seconds, the host's speed read just before and
   just after the repetition. *)
let setup () =
  let dev = Target.stratix_v in
  let reps =
    List.init setup_reps (fun _ ->
        let host = Host.create () in
        Host.burst host edge_slices;
        let t0 = now () in
        let char = Characterization.characterize ~dev () in
        let t1 = now () in
        let nn = Nn_correction.train ~seed:train_seed char dev in
        let t2 = now () in
        Host.burst host edge_slices;
        (Estimator.of_parts ~dev char nn, Host.scale host (t1 -. t0), Host.scale host (t2 -. t1)))
  in
  let med f = Stats.median (List.map f reps) in
  let est, _, _ = List.hd reps in
  {
    est;
    setup_s = med (fun (_, c, n) -> c +. n);
    characterize_s = med (fun (_, c, _) -> c);
    nn_train_s = med (fun (_, _, n) -> n);
  }

(* ------------------------------------------------------------------ *)
(* cold-proof / cold-light: cold [Explore.run]s with a fresh [Eval.t]  *)
(* ------------------------------------------------------------------ *)

type cold_sweep = {
  c_app : App.t;
  c_seed : int;
  c_points : int;
  c_tally : Layers.tally;
  c_hits : int;
  c_misses : int;
}

(* The latencies, by point index, of the points a sweep estimated. *)
let evaluated_latencies host (r : Explore.result) ~space ~seed ~max_points lat =
  let estimated = Hashtbl.create 256 in
  List.iter (fun (e : Outcome.evaluation) -> Hashtbl.replace estimated e.Outcome.point ()) r.Explore.evaluations;
  let points = Array.of_list (Space.sample space ~seed ~max_points) in
  List.filter_map
    (fun (i, dt) -> if Hashtbl.mem estimated points.(i) then Some (Host.scale host dt) else None)
    lat

(* [rounds] rounds of one sweep per app, each with its own sweep seed
   drawn from the workload seed, so a run measures [rounds] times as many
   distinct points and its figures depend less on which points a seed
   draws. Each sweep runs against a fresh [Eval.t] from a compacted heap.
   Point latencies come from the cooperative-stop hook, which
   [Explore.run] polls after every point; the hook also samples the host's
   speed, and its own time is left out. Only points that were estimated
   count as latencies: a pruned point is a verdict, not an answer, and the
   gate's microsecond refutations would put the median of a kmeans sweep
   wherever its refuted share falls. *)
let cold_run est acc ~apps ~max_points ~seed ~rounds =
  let rng = Rng.create seed in
  let sweeps = ref [] in
  for _ = 1 to rounds do
    List.iter
      (fun name ->
        let c_seed = sweep_seed rng in
        let app = app_named name in
        let sizes = app.App.paper_sizes in
        let host = Host.create () in
        let lat = ref [] and last = ref nan and excluded = ref 0.0 and i = ref 0 in
        let hook () =
          let t = now () in
          if Float.is_finite !last then lat := (!i, t -. !last) :: !lat;
          incr i;
          let k = Host.tick host in
          excluded := !excluded +. k;
          last := t +. k;
          false
        in
        let cfg =
          Explore.Config.make ~seed:c_seed ~max_points ~tick_every:0 ~stop_requested:hook ()
        in
        Gc.compact ();
        Host.burst host edge_slices;
        let ev = Eval.create est in
        let t0 = now () in
        let r =
          Explore.run cfg ev ~space:(app.App.space sizes)
            ~generate:(fun params -> app.App.generate ~sizes ~params)
        in
        let wall = now () -. t0 -. !excluded in
        let dt = Host.scale host wall in
        acc.sweep_s <- acc.sweep_s +. dt;
        acc.wall_s <- acc.wall_s +. wall;
        acc.points <- acc.points + r.Explore.sampled;
        acc.failed <- acc.failed + List.length r.Explore.failures;
        add_app_time acc name r.Explore.sampled dt;
        List.iter (add_latency acc name)
          (evaluated_latencies host r ~space:(app.App.space sizes) ~seed:c_seed ~max_points !lat);
        sweeps :=
          {
            c_app = app;
            c_seed;
            c_points = max_points;
            c_tally = Layers.tally_of_result r;
            c_hits = r.Explore.cache_hits;
            c_misses = r.Explore.cache_misses;
          }
          :: !sweeps)
      apps
  done;
  List.rev !sweeps

let same_tally what (a : Layers.tally) (b : Layers.tally) =
  let ints (t : Layers.tally) =
    [ t.sampled; t.evaluated; t.lint_pruned; t.absint_pruned; t.dep_pruned; t.sym_pruned;
      t.failures ]
  in
  if ints a <> ints b || not (Checks.same_bits a.Layers.pareto b.Layers.pareto) then
    Checks.fail "%s: outcome counts or Pareto set differ" what;
  if a.Layers.digest <> b.Layers.digest then
    Checks.fail "%s: evaluations differ" what

(* Checks on the untraced sweeps: every distinct Pareto design; and, per
   app, the symbolically refuted points of its first sweep that had any
   (the gate is re-derived deterministically to name them). *)
let cold_checks est ~seed sweeps =
  let ev = Eval.create est in
  let seen = Hashtbl.create 256 in
  let refuted_seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let app = s.c_app in
      let fresh =
        List.filter
          (fun (e : Outcome.evaluation) ->
            let k = (app.App.name, e.Outcome.point) in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          s.c_tally.Layers.pareto
      in
      Checks.pareto ev app fresh;
      let sym_pruned = s.c_tally.Layers.sym_pruned in
      if sym_pruned > 0 && not (Hashtbl.mem refuted_seen app.App.name) then begin
        Hashtbl.add refuted_seen app.App.name ();
        let sizes = app.App.paper_sizes in
        let space = app.App.space sizes in
        let generate params = app.App.generate ~sizes ~params in
        let gate = Symgate.derive ~space ~generate () in
        let points = Space.sample space ~seed:s.c_seed ~max_points:s.c_points in
        let refuted =
          List.filter
            (fun p -> match Symgate.verdict gate p with Symbolic.Refuted _ -> true | _ -> false)
            points
        in
        if List.length refuted <> sym_pruned then
          Checks.fail "%s: re-derived gate refutes %d points, the sweep pruned %d" app.App.name
            (List.length refuted) sym_pruned;
        Checks.refuted ~dev:(Estimator.device est) ~seed app refuted
      end)
    sweeps

(* The traced replay of the same sweeps, each against a fresh memo. *)
let cold_traced est sweeps =
  List.iter
    (fun s ->
      let ev = Eval.create est in
      let h0 = Trace.counter "eval.hits" and m0 = Trace.counter "eval.misses" in
      let t =
        Layers.sweep ev (Layers.fresh_memo ()) s.c_app ~seed:s.c_seed ~max_points:s.c_points
      in
      let what = Printf.sprintf "%s sweep seed %d, traced and untraced" s.c_app.App.name s.c_seed in
      same_tally what t s.c_tally;
      if Trace.counter "eval.hits" - h0 <> s.c_hits || Trace.counter "eval.misses" - m0 <> s.c_misses
      then Checks.fail "%s: traced cache hits/misses differ from the untraced run" what)
    sweeps

(* ------------------------------------------------------------------ *)
(* serve-sessions: an in-process server driven by one closed-loop client *)
(* ------------------------------------------------------------------ *)

type session = {
  s_id : string;
  s_app : App.t;
  s_seed : int;
  s_repeat : bool;
  mutable s_summary : Json.t;  (* summary of the done reply *)
  mutable s_wall : float;  (* wall seconds from dse_start until done *)
  mutable s_lat : float list;  (* wall seconds of each estimate_batch request *)
  mutable s_batches : ((string * int) list list * float list) list;
      (* request specs and the cycles of each ok item, in order *)
}

(* The session mix, one unit of four sessions: a fresh gda and a fresh
   kmeans spec in a seeded order, then a repeat of each under a new session
   id, again in a seeded order. Half the sessions repeat an earlier spec. *)
let session_mix ~seed =
  let rng = Rng.create seed in
  let k = ref 0 in
  let session ?repeat app =
    incr k;
    {
      s_id = Printf.sprintf "s%d" !k;
      s_app = app;
      s_seed = (match repeat with Some s -> s | None -> sweep_seed rng);
      s_repeat = repeat <> None;
      s_summary = Json.Null;
      s_wall = 0.0;
      s_lat = [];
      s_batches = [];
    }
  in
  let pair () = if Rng.bool rng then ("gda", "kmeans") else ("kmeans", "gda") in
  let a, b = pair () in
  let fresh = List.map (fun n -> (n, session (app_named n))) [ a; b ] in
  let c, d = pair () in
  let again n = (List.assoc n fresh).s_seed in
  List.map snd fresh @ List.map (fun n -> session ~repeat:(again n) (app_named n)) [ c; d ]

let call client req =
  match Client.call client req with
  | Ok { P.r_body = Ok payload; _ } -> Ok payload
  | Ok { P.r_body = Error e; _ } -> Error e.P.err_message
  | Error msg -> Error msg

let member_exn k j =
  match Json.member k j with Some v -> v | None -> failwith ("reply lacks " ^ k)

let json_float j =
  match j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> failwith "not a number"

(* One session: dse_start, poll dse_status until done (the sweep time), then
   the estimate_batch requests over points of the session's sample. The
   host's speed is sampled into [host] while the server idles: before and
   after the sweep, between requests and after them. *)
let run_session client acc host ~rng ~polls s =
  let app = s.s_app in
  let req_id = ref 0 in
  let id () =
    incr req_id;
    Printf.sprintf "%s-%d" s.s_id !req_id
  in
  Host.burst host edge_slices;
  let t0 = now () in
  (match
     call client
       (P.request ~id:(id ()) ~app:app.App.name ~session:s.s_id ~seed:s.s_seed
          ~max_points:session_points P.Dse_start)
   with
  | Ok _ -> ()
  | Error msg -> failwith ("dse_start failed: " ^ msg));
  (* Poll until done. While the gate is derived no entries are
     checkpointed yet, so the sleep doubles; after that it is half the
     time the session needs at its rate so far, so the tail is polled
     finely with few polls in all. *)
  let rec wait sleep =
    incr polls;
    match call client (P.request ~id:(id ()) ~session:s.s_id P.Dse_status) with
    | Ok p when Json.member "state" p = Some (Json.Str "done") -> member_exn "summary" p
    | Ok p when Json.member "state" p = Some (Json.Str "failed") ->
      failwith ("session failed: " ^ Json.render p)
    | Ok p ->
      let entries = Option.value (Option.bind (Json.member "entries" p) Json.to_int) ~default:0 in
      let sleep =
        if entries = 0 then 2.0 *. sleep
        else
          let left = float_of_int (session_points - entries) *. (now () -. t0) /. float_of_int entries in
          Float.max poll_min_s (0.5 *. left)
      in
      let sleep = Float.min poll_max_s sleep in
      Unix.sleepf sleep;
      wait sleep
    | Error msg -> failwith ("dse_status failed: " ^ msg)
  in
  let summary = wait 0.001 in
  s.s_wall <- now () -. t0;
  Host.burst host edge_slices;
  s.s_summary <- summary;
  let int_of k = Option.value (Option.bind (Json.member k summary) Json.to_int) ~default:(-1) in
  acc.wall_s <- acc.wall_s +. s.s_wall;
  acc.points <- acc.points + int_of "sampled";
  acc.failed <- acc.failed + int_of "failures";
  (* New points come from another sample of the same space, in order, so
     none repeats within the session. *)
  let space = app.App.space app.App.paper_sizes in
  let fresh = ref (Space.sample space ~seed:(sweep_seed rng) ~max_points:(fresh_batches * specs_per_batch)) in
  let take () =
    match !fresh with
    | p :: rest ->
      fresh := rest;
      p
    | [] -> failwith "fresh sample too small"
  in
  let fresh_specs = Array.init fresh_batches (fun _ -> List.init specs_per_batch (fun _ -> take ())) in
  let plan =
    Array.to_list fresh_specs @ List.init repeat_batches (fun _ -> Rng.choice rng fresh_specs)
  in
  let lat = ref [] in
  let batches =
    List.map
      (fun specs ->
        ignore (Host.tick host);
        let req = P.request ~id:(id ()) ~specs:(List.map (fun p -> (app.App.name, p)) specs) P.Estimate_batch in
        let t0 = now () in
        let reply = call client req in
        let dt = now () -. t0 in
        lat := dt :: !lat;
        acc.req_wall_s <- acc.req_wall_s +. dt;
        acc.requests <- acc.requests + 1;
        let cycles =
          match reply with
          | Error _ ->
            acc.failed <- acc.failed + 1;
            []
          | Ok p ->
            let items = Option.value (Option.bind (Json.member "items" p) Json.to_list) ~default:[] in
            let ok =
              List.filter_map
                (fun it -> Option.map (fun o -> json_float (member_exn "cycles" o)) (Json.member "ok" it))
                items
            in
            if List.length ok <> specs_per_batch then acc.failed <- acc.failed + 1;
            ok
        in
        (specs, cycles))
      plan
  in
  Host.burst host edge_slices;
  s.s_lat <- !lat;
  s.s_batches <- batches

(* Checks on the served results: repeats answer exactly their first visit's
   summary; every fresh session's Pareto designs (from its checkpoint) pass
   the Pareto checks; a sample of its refuted points fails concrete lint;
   a seeded sample of batch items matches an uncached estimate. *)
let serve_checks est ~root ~seed sessions =
  let ev = Eval.create est in
  let dev = Estimator.device est in
  let rng = Rng.create seed in
  let first = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let key = (s.s_app.App.name, s.s_seed) in
      match Hashtbl.find_opt first key with
      | Some summary ->
        if Json.render summary <> Json.render s.s_summary then
          Checks.fail "repeated session %s answered %s, its first visit %s" s.s_id
            (Json.render s.s_summary) (Json.render summary)
      | None -> (
        Hashtbl.add first key s.s_summary;
        match Checkpoint.load ~path:(Session.checkpoint_path ~root s.s_id) with
        | Error msg -> Checks.fail "session %s checkpoint: %s" s.s_id msg
        | Ok c ->
          let entries = List.map snd c.Checkpoint.entries in
          let evals = List.filter_map (function Outcome.Evaluated e -> Some e | _ -> None) entries in
          Checks.pareto ev s.s_app (Explore.pareto_of evals);
          let space = s.s_app.App.space s.s_app.App.paper_sizes in
          let points = Array.of_list (Space.sample space ~seed:s.s_seed ~max_points:session_points) in
          let refuted =
            List.filter_map
              (fun (i, e) -> if e = Outcome.Sym_pruned then Some points.(i) else None)
              c.Checkpoint.entries
          in
          Checks.refuted ~dev ~seed s.s_app refuted))
    sessions;
  List.iter
    (fun s ->
      List.iter
        (fun (specs, cycles) ->
          if List.length cycles = List.length specs then begin
            let i = Rng.int rng (List.length specs) in
            let p = List.nth specs i in
            let e = Eval.estimate ~cache:false ev (Checks.generate s.s_app p) in
            if not (Checks.same_bits e.Estimator.cycles (List.nth cycles i)) then
              Checks.fail "session %s batch item %s: served cycles differ from an uncached estimate"
                s.s_id (Checks.show_point p)
          end)
        s.s_batches)
    sessions

(* The traced replay: the same sessions and batches against one memo, as
   the server's shared [Eval.t] sees them, each session checkpointing
   every [checkpoint_every] points like the server's sweeps. *)
let serve_traced est ~checkpoint_every sessions =
  let ev = Eval.create est in
  let memo = Layers.fresh_memo () in
  List.iter
    (fun s ->
      let path = Filename.concat work_dir (s.s_id ^ ".trace.jsonl") in
      let t =
        Layers.sweep ev memo ~checkpoint:(path, checkpoint_every) s.s_app ~seed:s.s_seed
          ~max_points:session_points
      in
      List.iter
        (fun (k, v) ->
          let served = Option.bind (Json.member k s.s_summary) Json.to_int in
          if served <> Some v then
            Checks.fail "session %s: traced %s is %d, the server's summary says %s" s.s_id k v
              (Json.render s.s_summary))
        [
          ("sampled", t.Layers.sampled);
          ("evaluated", t.Layers.evaluated);
          ("pareto", List.length t.Layers.pareto);
          ("failures", t.Layers.failures);
          ("lint_pruned", t.Layers.lint_pruned);
          ("absint_pruned", t.Layers.absint_pruned);
          ("dep_pruned", t.Layers.dep_pruned);
          ("sym_pruned", t.Layers.sym_pruned);
        ];
      let cycles (e : Outcome.evaluation) = e.Outcome.estimate.Estimator.cycles in
      (match (t.Layers.pareto, Json.member "best_cycles" s.s_summary) with
      | e :: rest, Some best ->
        let traced = List.fold_left (fun m e -> Float.min m (cycles e)) (cycles e) rest in
        if not (Checks.same_bits traced (json_float best)) then
          Checks.fail "session %s: traced best cycles %h, served %s" s.s_id traced (Json.render best)
      | [], Some Json.Null -> ()
      | _ -> Checks.fail "session %s: traced and served best designs disagree" s.s_id);
      List.iter
        (fun (specs, cycles) ->
          (* A batch that failed is already counted in [failed]. *)
          if List.length cycles = List.length specs then
            List.iter2
              (fun p served ->
                let traced = Layers.batch_item ev memo s.s_app p in
                if not (Checks.same_bits traced served) then
                  Checks.fail "session %s batch item %s: traced cycles %h, served %h" s.s_id
                    (Checks.show_point p) traced served)
              specs cycles)
        s.s_batches)
    sessions

(* One unit: a fresh server with its own sessions directory and shared
   [Eval.t], the four sessions of [session_mix], then shutdown. *)
type serve_unit = {
  u_seed : int;
  u_root : string;
  u_sessions : session list;
  u_ready_s : float;  (* reference seconds from server start until ready *)
  u_checkpoint_every : int;
}

let serve_unit est acc ~polls ~index ~seed =
  let root = Filename.concat work_dir (Printf.sprintf "sessions-%d" index) in
  let socket = Filename.concat work_dir "s.sock" in
  Unix.mkdir root 0o755;
  let cfg = Sup.default_config ~sessions_root:root ~estimator:(Lazy.from_val est) in
  (* The host's speed over the whole unit scales every time measured in it. *)
  let host = Host.create () in
  Host.burst host edge_slices;
  let t0 = now () in
  let server = Domain.spawn (fun () -> Server.run ~install_signals:false ~socket_path:socket cfg) in
  let client = Client.create ~timeout_s:120.0 ~socket_path:socket () in
  if not (Client.wait_ready ~timeout_s:60.0 client) then failwith "server did not come up";
  let ready_wall = now () -. t0 in
  let rng = Rng.create (seed + 1) in
  let sessions = session_mix ~seed in
  (* A server that cannot be asked to drain cannot be joined either: leave
     at once rather than hang. *)
  Fun.protect
    ~finally:(fun () ->
      match Client.call client (P.request ~id:"bye" P.Shutdown) with
      | Ok _ -> Domain.join server
      | Error msg ->
        prerr_endline ("perfbench: server unreachable at shutdown: " ^ msg);
        Unix._exit 1)
    (fun () -> List.iter (run_session client acc host ~rng ~polls) sessions);
  List.iter
    (fun s ->
      let dt = Host.scale host s.s_wall in
      acc.sweep_s <- acc.sweep_s +. dt;
      let sampled = Option.bind (Json.member "sampled" s.s_summary) Json.to_int in
      add_app_time acc s.s_app.App.name (Option.value sampled ~default:0) dt;
      List.iter (fun l -> add_latency acc s.s_app.App.name (Host.scale host l)) s.s_lat)
    sessions;
  {
    u_seed = seed;
    u_root = root;
    u_sessions = sessions;
    u_ready_s = Host.scale host ready_wall;
    u_checkpoint_every = cfg.Sup.dse_checkpoint_every;
  }

(* [units] units one after another, each with its own unit seed drawn from
   the workload seed, so a run serves [units] times as many distinct
   sessions and batches. *)
let serve_run est acc ~seed ~units =
  let rng = Rng.create seed in
  let polls = ref 0 in
  let runs =
    List.init units (fun i ->
        Gc.compact ();
        serve_unit est acc ~polls ~index:(i + 1) ~seed:(sweep_seed rng))
  in
  (runs, !polls)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~attempted ~failed metrics =
  let correct = !Checks.problems = [] in
  List.iter (fun p -> Printf.eprintf "perfbench: check failed: %s\n" p) (List.rev !Checks.problems);
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %16.6f %s\n" name v unit) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics));
  if not correct then exit 1

(* Rates and latencies are in reference seconds. The rate in plain wall
   seconds, and the host's mean slowdown, are printed too but not gated. *)
let end_to_end acc ~setup_s ~rss_mb ~extra =
  let attempted = acc.points + acc.requests in
  let ms = latency_ms acc in
  Printf.printf "%-34s %16.6f %s\n" "wall_pts_per_s" (rate acc.points acc.wall_s) "1/s";
  Printf.printf "%-34s %16.6f %s\n" "host_slowdown" (acc.wall_s /. acc.sweep_s) "ratio";
  let metrics =
    [
      ("pts_per_s", rate acc.points acc.sweep_s, "1/s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss_mb, "MiB");
      ("req_ms_p50", ms 0.5, "ms");
      ("req_ms_p90", ms 0.9, "ms");
      ("cycle_err_pct", Checks.mean_err Checks.cycle_errs, "%");
      ("alm_err_pct", Checks.mean_err Checks.alm_errs, "%");
    ]
  in
  Printf.printf "%-34s %16.6f %s\n" "fail_frac"
    (float_of_int acc.failed /. float_of_int (max 1 attempted))
    "ratio";
  List.iter (fun (k, v) -> Printf.printf "%-34s %16d samples\n" k v) extra;
  print_result ~attempted ~failed:acc.failed metrics

(* What only serve-sessions measures; zeros on the cold workloads. *)
type serve_stats = { repeat_frac : float; polls : int; ready_s : float }

let no_serve = { repeat_frac = 0.0; polls = 0; ready_s = 0.0 }

let per_layer acc st ~untraced_s ~traced_s ~sweeps ~serve =
  let us_layers = [ "dependence"; "absint"; "estimate"; "design_key"; "generate"; "validate" ] in
  let c name = float_of_int (Trace.counter name) in
  let verdicts = c "symgate.refuted" +. c "symgate.legal" +. c "symgate.unknown" in
  let frac a b = if b > 0.0 then a /. b else 0.0 in
  let layer_s = Trace.total_seconds () in
  let metrics =
    List.concat
      [
        List.concat_map
          (fun l ->
            [
              (l ^ ".calls", float_of_int (Trace.calls l), "count");
              (l ^ ".us_p50", Trace.us_quantile 0.5 l, "us");
              (l ^ ".us_p95", Trace.us_quantile 0.95 l, "us");
              (l ^ ".s", Trace.seconds l, "s");
            ])
          us_layers;
        [
          ("dependence.pairs", c "dependence.pairs", "count");
          ("dependence.unknown_pairs", c "dependence.unknown_pairs", "count");
          ("lint.heuristic_us_p50", Trace.us_quantile 0.5 "lint.heuristic", "us");
          ("lint.heuristic_s", Trace.seconds "lint.heuristic", "s");
          ("lint.proof_s", Trace.seconds "lint.proof", "s");
          ("symgate.derive_calls", float_of_int (Trace.calls "symgate.derive"), "count");
          ("symgate.derive_s", Trace.seconds "symgate.derive", "s");
          ("symgate.verdict_s", Trace.seconds "symgate.verdict", "s");
          ("symgate.refuted", c "symgate.refuted", "count");
          ("symgate.legal", c "symgate.legal", "count");
          ("symgate.unknown", c "symgate.unknown", "count");
          ("symgate.decided_frac", frac (c "symgate.refuted" +. c "symgate.legal") verdicts, "ratio");
          ("eval.hits", c "eval.hits", "count");
          ("eval.misses", c "eval.misses", "count");
          ("eval.hit_frac", frac (c "eval.hits") (c "eval.hits" +. c "eval.misses"), "ratio");
          ("checkpoint.saves", float_of_int (Trace.calls "checkpoint.save"), "count");
          ("checkpoint.bytes_written", c "checkpoint.bytes_written", "B");
          ("checkpoint.save_s", Trace.seconds "checkpoint.save", "s");
          ("checkpoint.loads", float_of_int (Trace.calls "checkpoint.load"), "count");
          ("checkpoint.load_s", Trace.seconds "checkpoint.load", "s");
          ("pareto.s", Trace.seconds "pareto", "s");
          ("explore.sample_s", Trace.seconds "explore.sample", "s");
          ( "explore.pruned_frac",
            frac (c "explore.pruned") (c "explore.sampled"),
            "ratio" );
          ("explore.other_s", traced_s -. layer_s, "s");
          ("explore.other_frac", frac (traced_s -. layer_s) traced_s, "ratio");
          ("explore.traced_wall_s", traced_s, "s");
          ("explore.untraced_wall_s", untraced_s, "s");
          ("explore.trace_overhead_s", traced_s -. untraced_s, "s");
          ("setup.characterize_s", st.characterize_s, "s");
          ("setup.nn_train_s", st.nn_train_s, "s");
        ];
        List.map
          (fun app ->
            let p, s = Option.value (Hashtbl.find_opt acc.per_app app) ~default:(0, 0.0) in
            ("explore.pts_per_s." ^ app, rate p s, "1/s"))
          all_apps;
        List.concat_map
          (fun l ->
            List.map
              (fun app ->
                let name = if l = "lint.heuristic" then "lint.heuristic_us_p50" else l ^ ".us_p50" in
                (name ^ "." ^ app, Trace.app_us_p50 l app, "us"))
              all_apps)
          (us_layers @ [ "lint.heuristic" ]);
        [
          ("explore.sweeps", float_of_int sweeps, "count");
          ("serve.repeat_frac", serve.repeat_frac, "ratio");
          ("serve.requests", float_of_int acc.requests, "count");
          ("serve.status_polls", float_of_int serve.polls, "count");
          ("serve.ready_s", serve.ready_s, "s");
        ];
      ]
  in
  print_result ~attempted:(acc.points + acc.requests) ~failed:acc.failed metrics

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let workloads = [ "cold-proof"; "cold-light"; "serve-sessions" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  fresh_work_dir ();
  Fun.protect ~finally:(fun () -> rm_rf work_dir) @@ fun () ->
  let st = setup () in
  let acc = fresh_acc () in
  match !workload with
  | "serve-sessions" ->
    let units, polls = serve_run st.est acc ~seed ~units:(rounds_for ~seconds serve_unit_s) in
    let rss_mb = peak_rss_mb () in
    List.iter (fun u -> serve_checks st.est ~root:u.u_root ~seed:u.u_seed u.u_sessions) units;
    let sessions = List.concat_map (fun u -> u.u_sessions) units in
    let ready_s = Stats.median (List.map (fun u -> u.u_ready_s) units) in
    let repeats = List.length (List.filter (fun s -> s.s_repeat) sessions) in
    let repeat_frac = float_of_int repeats /. float_of_int (List.length sessions) in
    if traced then begin
      let untraced_s = acc.wall_s +. acc.req_wall_s in
      Trace.reset ();
      let t0 = now () in
      List.iter
        (fun u -> serve_traced st.est ~checkpoint_every:u.u_checkpoint_every u.u_sessions)
        units;
      let traced_s = now () -. t0 in
      per_layer acc st ~untraced_s ~traced_s ~sweeps:(List.length sessions)
        ~serve:{ repeat_frac; polls; ready_s }
    end
    else
      end_to_end acc ~setup_s:(st.setup_s +. ready_s) ~rss_mb
        ~extra:[ ("sessions", List.length sessions); ("requests", acc.requests) ]
  | name ->
    let apps, max_points, round_s =
      if name = "cold-proof" then ([ "gda"; "gemm"; "kmeans"; "outerprod" ], proof_points, proof_round_s)
      else ([ "dotproduct"; "tpchq6"; "blackscholes" ], light_points, light_round_s)
    in
    let rounds = rounds_for ~seconds round_s in
    let sweeps = cold_run st.est acc ~apps ~max_points ~seed ~rounds in
    let rss_mb = peak_rss_mb () in
    cold_checks st.est ~seed sweeps;
    if traced then begin
      let untraced_s = acc.wall_s in
      Trace.reset ();
      let t0 = now () in
      cold_traced st.est sweeps;
      let traced_s = now () -. t0 in
      per_layer acc st ~untraced_s ~traced_s ~sweeps:(List.length sweeps) ~serve:no_serve
    end
    else
      end_to_end acc ~setup_s:st.setup_s ~rss_mb
        ~extra:[ ("sweeps", List.length sweeps); ("point latencies", List.length (latencies acc)) ]
