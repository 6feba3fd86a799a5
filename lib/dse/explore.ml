module Estimator = Dhdl_model.Estimator
module Pareto = Dhdl_util.Pareto
module Faults = Dhdl_util.Faults
module Obs = Dhdl_obs.Obs
module Symbolic = Dhdl_absint.Symbolic

type evaluation = Outcome.evaluation = {
  point : Space.point;
  estimate : Estimator.estimate;
  valid : bool;
  alm_pct : float;
  dsp_pct : float;
  bram_pct : float;
}

type failure_stage = Outcome.failure_stage =
  | Generator_error
  | Lint_error
  | Estimator_error
  | Non_finite_estimate

type failure = Outcome.failure = {
  f_index : int;
  f_point : Space.point;
  f_stage : failure_stage;
  f_message : string;
}

type result = {
  space_name : string;
  param_names : string list;
  evaluations : evaluation list;
  pareto : evaluation list;
  failures : failure list;
  raw_space : int;
  sampled : int;
  processed : int;
  lint_pruned : int;
  absint_pruned : int;
  dep_pruned : int;
  sym_pruned : int;
  resumed : int;
  truncated : bool;
  jobs : int;
  elapsed_seconds : float;
  cpu_seconds : float;
  cache_hits : int;
  cache_misses : int;
  attribution : Profile.t option;
}

(* ------------------------------------------------------------------ *)
(* Sweep configuration.  One record replaces the labelled-optional
   argument soup the old [run] signature had accreted: every knob has a
   validated default, call sites spell out only what they change, and new
   knobs (like [jobs]) stop rippling through every caller's signature. *)

module Config = struct
  type t = {
    seed : int;
    max_points : int;
    symbolic : bool;
    jobs : int;
    tick_every : int;
    checkpoint : string option;
    checkpoint_every : int;
    resume : bool;
    deadline_seconds : float option;
    profile : bool;
    stop_requested : (unit -> bool) option;
  }

  (* OCaml's runtime caps live domains well above this, but a sweep gains
     nothing past the core count; reject absurd values early with the same
     [Failure]-based message style the CLI's error handler renders. *)
  let max_jobs = 64

  let validate t =
    if t.jobs < 1 then failwith (Printf.sprintf "jobs must be >= 1 (got %d)" t.jobs);
    if t.jobs > max_jobs then
      failwith (Printf.sprintf "jobs must be <= %d (got %d)" max_jobs t.jobs);
    if t.max_points < 0 then
      failwith (Printf.sprintf "max_points must be >= 0 (got %d)" t.max_points);
    if t.checkpoint_every < 0 then
      failwith (Printf.sprintf "checkpoint_every must be >= 0 (got %d)" t.checkpoint_every);
    (match t.deadline_seconds with
    | Some d when not (Float.is_finite d && d >= 0.0) ->
      failwith (Printf.sprintf "deadline must be a finite number of seconds >= 0 (got %g)" d)
    | _ -> ());
    if t.resume && t.checkpoint = None then failwith "--resume requires --checkpoint FILE";
    t

  let default =
    {
      seed = 2016;
      max_points = 75_000;
      symbolic = true;
      jobs = 1;
      tick_every = 1000;
      checkpoint = None;
      checkpoint_every = 500;
      resume = false;
      deadline_seconds = None;
      profile = false;
      stop_requested = None;
    }

  let make ?(seed = default.seed) ?(max_points = default.max_points)
      ?(symbolic = default.symbolic) ?(jobs = default.jobs) ?(tick_every = default.tick_every)
      ?checkpoint ?(checkpoint_every = default.checkpoint_every) ?(resume = default.resume)
      ?deadline_seconds ?(profile = default.profile) ?stop_requested () =
    validate
      { seed; max_points; symbolic; jobs; tick_every; checkpoint; checkpoint_every; resume;
        deadline_seconds; profile; stop_requested }
end

let pareto_of evals =
  let valid = List.filter (fun e -> e.valid) evals in
  Pareto.frontier (fun e -> (e.estimate.Estimator.cycles, e.alm_pct)) valid

let stage_counter stage = "dse.failed." ^ Outcome.stage_name stage

let load_resume ~path ~space ~seed ~max_points ~total ~param_names =
  if not (Sys.file_exists path) then Hashtbl.create 1
  else
    match Checkpoint.load ~path with
    | Error msg -> failwith ("cannot resume: " ^ msg)
    | Ok c ->
      if
        c.Checkpoint.space_name <> Space.name space
        || c.Checkpoint.seed <> seed
        || c.Checkpoint.max_points <> max_points
        || c.Checkpoint.total <> total
        || c.Checkpoint.params <> param_names
      then
        failwith
          (Printf.sprintf
             "cannot resume: checkpoint %s was taken for sweep (space=%s seed=%d max_points=%d \
              total=%d), not (space=%s seed=%d max_points=%d total=%d)"
             path c.Checkpoint.space_name c.Checkpoint.seed c.Checkpoint.max_points
             c.Checkpoint.total (Space.name space) seed max_points total)
      else begin
        if c.Checkpoint.truncated_tail then
          Printf.eprintf
            "warning: checkpoint %s had a torn final line (dropped); resuming from %d complete \
             entr%s\n\
             %!"
            path
            (List.length c.Checkpoint.entries)
            (if List.length c.Checkpoint.entries = 1 then "y" else "ies");
        let tbl = Hashtbl.create (2 * List.length c.Checkpoint.entries) in
        List.iter (fun (i, e) -> Hashtbl.replace tbl i e) c.Checkpoint.entries;
        tbl
      end

(* Points per cursor claim. A claim is one fetch-and-add, and worker 0
   records after each of its own chunks, so the chunk bounds both claim
   traffic and how long finished outcomes wait to be recorded. *)
let chunk = 16

let run (cfg : Config.t) (ev : Eval.t) ~space ~generate =
  let { Config.seed; max_points; symbolic; jobs; tick_every; checkpoint; checkpoint_every;
        resume; deadline_seconds; profile; stop_requested } =
    Config.validate cfg
  in
  Obs.span "dse.run"
    ~attrs:[ ("space", Space.name space); ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let points = Obs.span "dse.sample" (fun () -> Space.sample space ~seed ~max_points) in
  let total = List.length points in
  let param_names = List.map fst (Space.dims space) in
  if Obs.enabled () then begin
    (* Register every counter up front so reports show the full set at
       zero even for clean or empty sweeps. *)
    Obs.count ~by:total "dse.points_sampled";
    Obs.count ~by:0 "dse.lint_pruned";
    Obs.count ~by:0 "dse.absint_pruned";
    Obs.count ~by:0 "dse.dep_pruned";
    Obs.count ~by:0 "dse.sym_pruned";
    Obs.count ~by:0 "dse.estimated";
    Obs.count ~by:0 "dse.unfit";
    Obs.count ~by:0 "dse.cache.hit";
    Obs.count ~by:0 "dse.cache.miss";
    Obs.count ~by:0 "dse.cache.evict";
    List.iter
      (fun stage -> Obs.count ~by:0 (stage_counter stage))
      [ Generator_error; Lint_error; Estimator_error; Non_finite_estimate ]
  end;
  let prior =
    match checkpoint with
    | Some path when resume ->
      load_resume ~path ~space ~seed ~max_points ~total ~param_names
    | _ -> Hashtbl.create 1
  in
  (* The symbolic gate is derived once, before any worker starts, from a
     fixed-seed probe sample — so every point (on every domain) consults
     the identical constraint system and the bit-identical-checkpoint
     guarantee survives. It stands down while fault injection is armed,
     because its probe elaborations would consume fault sites the
     per-point replay expects. *)
  let gate =
    if symbolic && not (Faults.active ()) then
      Some (Obs.span "dse.symgate" (fun () -> Symgate.derive ~space ~generate ()))
    else None
  in
  let t_loop0 = Unix.gettimeofday () in
  let stats0 = Eval.stats ev in
  let past_deadline () =
    match deadline_seconds with
    | None -> false
    | Some d -> Unix.gettimeofday () -. t0 >= d
  in
  (* Cancellation rides the deadline-truncation machinery: a [true] from
     the hook stops the sweep exactly like an expired deadline — the result
     is flagged [truncated] and the final checkpoint still lands, so a
     cancelled sweep is resumable. A hook that raises counts as a stop
     request rather than killing the sweep. *)
  let should_stop () =
    past_deadline ()
    || (match stop_requested with None -> false | Some f -> ( try f () with _ -> true))
  in
  (* One point's work: reuse the resume entry or run [Eval]'s barriered
     pipeline. Pure in the point index (sampling is seeded, fault sites
     are keyed by [with_key i], and [Eval]'s caches memoize pure functions
     of the design key — and stand down entirely while fault injection is
     armed), which is what lets any number of domains produce results
     bit-identical to one domain's at any cache temperature. *)
  let compute ?stages i p =
    match Hashtbl.find_opt prior i with
    | Some e ->
      if Obs.enabled () then Obs.count "dse.resumed";
      (e, true, 0.0)
    | None ->
      let start = Unix.gettimeofday () in
      let e =
        Faults.with_key i @@ fun () ->
        Obs.span_sampled ~every:100 ~i "dse.point" @@ fun () ->
        (* Pre-elaboration gate: a refuted point is never generated;
           everything else runs [Eval]'s full pipeline. Verdict time is
           attributed to the probe stage when profiling. *)
        let refuted =
          match gate with
          | None -> false
          | Some g -> (
            let t0 = if stages <> None then Unix.gettimeofday () else 0.0 in
            let v = Symgate.verdict g p in
            (match stages with
            | Some s -> s.Eval.s_probe <- s.Eval.s_probe +. (Unix.gettimeofday () -. t0)
            | None -> ());
            match v with Symbolic.Refuted _ -> true | Symbolic.Legal | Symbolic.Unknown _ -> false)
        in
        let e = if refuted then Outcome.Sym_pruned else Eval.evaluate ev ?stages ~index:i ~generate p in
        if Obs.enabled () then begin
          match e with
          | Outcome.Evaluated _ ->
            Obs.count "dse.estimated";
            Obs.observe "dse.ms_per_design" ((Unix.gettimeofday () -. start) *. 1000.0)
          | Outcome.Pruned -> Obs.count "dse.lint_pruned"
          | Outcome.Absint_pruned -> Obs.count "dse.absint_pruned"
          | Outcome.Dep_pruned -> Obs.count "dse.dep_pruned"
          | Outcome.Sym_pruned -> Obs.count "dse.sym_pruned"
          | Outcome.Failed (stage, _) -> Obs.count (stage_counter stage)
        end;
        e
      in
      (e, false, Unix.gettimeofday () -. start)
  in
  (* Recording state. Only worker 0 (the calling domain) touches any of
     this — in particular the checkpoint file has a single writer, so the
     atomic temp-file + rename protocol and the resume guarantees are
     untouched by parallelism. *)
  let entries = ref [] (* (index, entry), newest first *) in
  let lint_pruned = ref 0 in
  let absint_pruned = ref 0 in
  let dep_pruned = ref 0 in
  let sym_pruned = ref 0 in
  let resumed = ref 0 in
  let failures = ref [] in
  let processed = ref 0 in
  let cpu_seconds = ref 0.0 in
  let write_seconds = ref 0.0 in
  let merge_seconds = ref 0.0 in
  let write_checkpoint () =
    match checkpoint with
    | None -> ()
    | Some path ->
      Obs.span "dse.checkpoint" @@ fun () ->
      let t0 = if profile then Unix.gettimeofday () else 0.0 in
      Checkpoint.save ~path
        {
          Checkpoint.space_name = Space.name space;
          seed;
          max_points;
          total;
          params = param_names;
          entries = List.rev !entries;
          truncated_tail = false;
        };
      if profile then write_seconds := !write_seconds +. (Unix.gettimeofday () -. t0)
  in
  (* Merge one point's outcome, in sampling-index order. *)
  let record i p (entry, was_resumed, dt) =
    Obs.tick ~every:tick_every ~label:("dse " ^ Space.name space) ~total i;
    if was_resumed then incr resumed;
    (match entry with
    | Outcome.Pruned -> incr lint_pruned
    | Outcome.Absint_pruned -> incr absint_pruned
    | Outcome.Dep_pruned -> incr dep_pruned
    | Outcome.Sym_pruned -> incr sym_pruned
    | Outcome.Failed (f_stage, f_message) ->
      failures := { f_index = i; f_point = p; f_stage; f_message } :: !failures
    | Outcome.Evaluated _ -> ());
    entries := (i, entry) :: !entries;
    incr processed;
    cpu_seconds := !cpu_seconds +. dt;
    if checkpoint_every > 0 && !processed mod checkpoint_every = 0 then write_checkpoint ()
  in
  (* The claim loop. Every worker claims [chunk]-point chunks from one
     atomic cursor, writes each outcome into its index's slot, and then
     publishes the chunk's length; the atomic publish orders the slot
     writes before worker 0 reads them. A chunk a stop cut short publishes
     the points it did compute (possibly none), and chunks never claimed
     stay unpublished. At [jobs = 1] no domain is spawned and this is the
     sequential sweep. When profiling, every accumulator is owned by
     exactly one domain, so the profiler adds no contention of its own. *)
  let points_arr = Array.of_list points in
  let n_chunks = (total + chunk - 1) / chunk in
  let slots = Array.make total (Outcome.Pruned, false, 0.0) in
  let published = Array.init n_chunks (fun _ -> Atomic.make (-1)) in
  let cursor = Atomic.make 0 in
  let stop = Atomic.make false in
  let stage_slots = Array.init jobs (fun _ -> Eval.fresh_stages ()) in
  let point_slots = Array.make jobs 0 in
  let wall_slots = Array.make jobs 0.0 in
  (* Worker 0 records published chunks in index order, so entries,
     counters, ticks and periodic checkpoints match a one-domain run's.
     Mid-sweep it stops at the first unpublished chunk; after the join
     ([~all]) every chunk is final and unpublished ones are skipped. *)
  let next_chunk = ref 0 in
  let drain ~all =
    let t = if profile then Unix.gettimeofday () else 0.0 in
    let written = !write_seconds in
    let rec go () =
      if !next_chunk < n_chunks then begin
        let n = Atomic.get published.(!next_chunk) in
        if n >= 0 || all then begin
          let lo = !next_chunk * chunk in
          for i = lo to lo + n - 1 do
            record i points_arr.(i) slots.(i)
          done;
          incr next_chunk;
          go ()
        end
      end
    in
    go ();
    if profile then
      merge_seconds :=
        !merge_seconds +. (Unix.gettimeofday () -. t) -. (!write_seconds -. written)
  in
  let work k =
    let stages = if profile then Some stage_slots.(k) else None in
    let t_w0 = if profile then Unix.gettimeofday () else 0.0 in
    let rec loop () =
      if not (Atomic.get stop) then begin
        let c = Atomic.fetch_and_add cursor 1 in
        if c < n_chunks then begin
          let lo = c * chunk in
          let hi = min total (lo + chunk) in
          let i = ref lo in
          (* The deadline (or a cancel request) is checked after each
             point, and tripping it stops every worker from computing
             further points. *)
          while !i < hi && not (Atomic.get stop) do
            slots.(!i) <- compute ?stages !i points_arr.(!i);
            incr i;
            if should_stop () then Atomic.set stop true
          done;
          Atomic.set published.(c) (!i - lo);
          if profile then point_slots.(k) <- point_slots.(k) + (!i - lo);
          if k = 0 then drain ~all:false;
          loop ()
        end
      end
    in
    loop ();
    if profile then begin
      wall_slots.(k) <- Unix.gettimeofday () -. t_w0;
      if Obs.enabled () then Obs.count ~by:point_slots.(k) (Printf.sprintf "dse.claims.w%d" k)
    end
  in
  (* Spawned workers record telemetry into per-domain buffers on their own
     trace lanes; worker 0 records on the caller's path. *)
  let domains =
    List.init (jobs - 1) (fun j ->
        let k = j + 1 in
        Domain.spawn (fun () -> Obs.with_domain_buffer ~track:k (fun () -> work k)))
  in
  (match work 0 with
  | () -> List.iter Domain.join domains
  | exception e ->
    Atomic.set stop true;
    List.iter (fun d -> try Domain.join d with _ -> ()) domains;
    raise e);
  drain ~all:true;
  if checkpoint <> None then write_checkpoint ();
  let attribution =
    if not profile then None
    else begin
      let now = Unix.gettimeofday () in
      (* Worker 0's wall runs through the final checkpoint, so setup plus
         it is the whole run. *)
      wall_slots.(0) <- now -. t_loop0;
      Some
        {
          Profile.jobs;
          wall_s = now -. t0;
          setup_s = t_loop0 -. t0;
          merge_s = !merge_seconds;
          write_s = !write_seconds;
          workers =
            List.init jobs (fun k ->
                let a = stage_slots.(k) in
                let accounted =
                  a.Eval.s_generate +. a.Eval.s_probe +. a.Eval.s_analyze +. a.Eval.s_estimate
                  +. if k = 0 then !merge_seconds +. !write_seconds else 0.0
                in
                {
                  Profile.w_domain = k;
                  w_points = point_slots.(k);
                  w_wall_s = wall_slots.(k);
                  w_generate_s = a.Eval.s_generate;
                  w_probe_s = a.Eval.s_probe;
                  w_analyze_s = a.Eval.s_analyze;
                  w_estimate_s = a.Eval.s_estimate;
                  w_idle_s = Float.max 0.0 (wall_slots.(k) -. accounted);
                });
        }
    end
  in
  let evaluations =
    List.rev_map (function _, Outcome.Evaluated e -> Some e | _ -> None) !entries
    |> List.filter_map Fun.id
  in
  let pareto = Obs.span "dse.pareto" (fun () -> pareto_of evaluations) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats1 = Eval.stats ev in
  if Obs.enabled () then begin
    Obs.count ~by:(List.length (List.filter (fun e -> not e.valid) evaluations)) "dse.unfit";
    Obs.gauge "dse.points_per_sec"
      (if elapsed > 0.0 then float_of_int !processed /. elapsed else 0.0)
  end;
  {
    space_name = Space.name space;
    param_names;
    evaluations;
    pareto;
    failures = List.rev !failures;
    raw_space = Space.raw_size space;
    sampled = total;
    processed = !processed;
    lint_pruned = !lint_pruned;
    absint_pruned = !absint_pruned;
    dep_pruned = !dep_pruned;
    sym_pruned = !sym_pruned;
    resumed = !resumed;
    truncated = Atomic.get stop;
    jobs;
    elapsed_seconds = elapsed;
    cpu_seconds = !cpu_seconds;
    cache_hits = stats1.Eval.hits - stats0.Eval.hits;
    cache_misses = stats1.Eval.misses - stats0.Eval.misses;
    attribution;
  }

let unfit_count r = List.length (List.filter (fun e -> not e.valid) r.evaluations)
let failed_count r = List.length r.failures

let failure_counts r =
  List.map
    (fun stage -> (stage, List.length (List.filter (fun f -> f.f_stage = stage) r.failures)))
    [ Generator_error; Lint_error; Estimator_error; Non_finite_estimate ]

let best r =
  match r.pareto with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun acc e -> if e.estimate.Estimator.cycles < acc.estimate.Estimator.cycles then e else acc)
         first rest)

(* Lint-pruned and failed points never produce an estimate, so the paper's
   ms/design metric (Table IV) divides by the evaluations that actually
   came back from the estimator. Wall-clock and aggregate-CPU variants are
   separate on purpose: with [jobs] > 1 wall-clock seconds/design shrinks
   with the core count while CPU seconds/design stays comparable with
   sequential (and older BENCH) numbers. *)
let seconds_per_design r =
  let estimated = List.length r.evaluations in
  if estimated <= 0 then 0.0 else r.elapsed_seconds /. float_of_int estimated

let cpu_seconds_per_design r =
  let estimated = List.length r.evaluations in
  if estimated <= 0 then 0.0 else r.cpu_seconds /. float_of_int estimated

let to_csv r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," r.param_names);
  Buffer.add_string buf ",cycles,alm_pct,dsp_pct,bram_pct,valid,pareto\n";
  let pareto_set = Hashtbl.create (2 * List.length r.pareto) in
  List.iter (fun e -> Hashtbl.replace pareto_set e.point ()) r.pareto;
  List.iter
    (fun e ->
      List.iter (fun (_, v) -> Buffer.add_string buf (string_of_int v ^ ",")) e.point;
      Buffer.add_string buf
        (Printf.sprintf "%.0f,%.3f,%.3f,%.3f,%d,%d\n" e.estimate.Estimator.cycles e.alm_pct
           e.dsp_pct e.bram_pct
           (if e.valid then 1 else 0)
           (if Hashtbl.mem pareto_set e.point then 1 else 0)))
    r.evaluations;
  Buffer.contents buf
