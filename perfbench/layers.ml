(* The traced run: [Explore.run]'s sequential sweep and [Eval.evaluate]'s
   decision path, replayed from outside through each layer's public
   functions with a span around every call.

   - The symbolic gate is derived per sweep; a [Refuted] point is never
     generated, a [Legal] one skips the proof-backed lint passes, and an
     [Unknown] one runs everything.
   - The analysis is the full [Lint.check] split into its parts: the
     validator, the two analysis reports, the heuristic passes and (unless
     the gate said [Legal]) the proof passes. Both reports are built before
     the heuristic passes because L001 and L003 read them too: building
     them first keeps that work in the [absint] and [dependence] spans
     instead of hiding it in the lint span.
   - A design whose analysis raises or says "error" is never estimated.
   - The memo mirrors [Eval]'s two caches (verdicts keyed by design key plus
     the enabled analysis set, estimates keyed by design key), so hit and
     miss counts must match the untraced run's. *)

module Eval = Dhdl_dse.Eval
module Explore = Dhdl_dse.Explore
module Outcome = Dhdl_dse.Outcome
module Space = Dhdl_dse.Space
module Symgate = Dhdl_dse.Symgate
module Checkpoint = Dhdl_dse.Checkpoint
module Symbolic = Dhdl_absint.Symbolic
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module Design_key = Dhdl_model.Design_key
module Estimator = Dhdl_model.Estimator
module Lint = Dhdl_lint.Lint
module Analysis = Dhdl_ir.Analysis
module Diag = Dhdl_ir.Diag
module App = Dhdl_apps.App

type verdict = Clean | Heuristic_errors | Absint_refuted | Dep_refuted

type memo = {
  analysis : (string, verdict) Hashtbl.t;
  estimates : (string, Outcome.evaluation) Hashtbl.t;
}

let fresh_memo () = { analysis = Hashtbl.create 1024; estimates = Hashtbl.create 1024 }

let probe tbl k =
  let r = Hashtbl.find_opt tbl k in
  Trace.count (if r = None then "eval.misses" else "eval.hits");
  r

(* [Eval]'s classification of error-level diagnostics. *)
let classify diags =
  let proof, heuristic =
    List.partition (fun g -> List.mem g.Diag.code Lint.proof_codes) (Lint.errors diags)
  in
  if heuristic <> [] then Heuristic_errors
  else if proof = [] then Clean
  else if List.for_all (fun g -> g.Diag.code = "L013") proof then Dep_refuted
  else Absint_refuted

let count_pairs (r : Dependence.report) =
  List.iter
    (fun (pd : Dependence.pipe_dep) ->
      List.iter
        (fun (p : Dependence.pair) ->
          Trace.count "dependence.pairs";
          match p.Dependence.p_status with
          | Dependence.Unknown _ -> Trace.count "dependence.unknown_pairs"
          | Dependence.Independent | Dependence.Carried _ -> ())
        pd.Dependence.pd_pairs)
    r.Dependence.r_pipes

let analyze ~dev ~proofs design =
  let base = Trace.span "validate" (fun () -> Analysis.validate_diags design) in
  count_pairs (Trace.span "dependence" (fun () -> Dependence.report_cached design));
  ignore (Trace.span "absint" (fun () -> Absint.report_cached design));
  let heuristic =
    Trace.span "lint.heuristic" (fun () ->
        Lint.check ~dev ~validate:false ~only:Lint.heuristic_codes design)
  in
  let proof =
    if proofs then
      Trace.span "lint.proof" (fun () ->
          Lint.check ~dev ~validate:false ~only:Lint.proof_codes design)
    else []
  in
  classify (base @ heuristic @ proof)

let finite (e : Outcome.evaluation) =
  let ok f = Float.is_finite f && f >= 0.0 in
  ok e.Outcome.estimate.Estimator.cycles
  && ok e.Outcome.estimate.Estimator.seconds
  && ok e.Outcome.alm_pct && ok e.Outcome.dsp_pct && ok e.Outcome.bram_pct

let describe e = Printexc.to_string e

(* One point after the gate let it through. *)
let evaluate ev memo ~proofs ~generate point =
  match Trace.span "generate" (fun () -> generate point) with
  | exception e -> Outcome.Failed (Outcome.Generator_error, describe e)
  | design -> (
    let key = Trace.span "design_key" (fun () -> Design_key.to_string (Design_key.of_design design)) in
    let akey = key ^ if proofs then "/la" else "/l-" in
    let dev = Estimator.device (Eval.estimator ev) in
    let verdict =
      match probe memo.analysis akey with
      | Some v -> Ok v
      | None -> (
        match analyze ~dev ~proofs design with
        | v ->
          Hashtbl.replace memo.analysis akey v;
          Ok v
        | exception e -> Error (describe e))
    in
    match verdict with
    | Error msg -> Outcome.Failed (Outcome.Lint_error, msg)
    | Ok Heuristic_errors -> Outcome.Pruned
    | Ok Absint_refuted -> Outcome.Absint_pruned
    | Ok Dep_refuted -> Outcome.Dep_pruned
    | Ok Clean -> (
      let estimated =
        match probe memo.estimates key with
        | Some e -> Ok { e with Outcome.point }
        | None -> (
          match Trace.span "estimate" (fun () -> Eval.evaluation ~cache:false ev point design) with
          | e ->
            Hashtbl.replace memo.estimates key e;
            Ok e
          | exception e -> Error (describe e))
      in
      match estimated with
      | Error msg -> Outcome.Failed (Outcome.Estimator_error, msg)
      | Ok e when finite e -> Outcome.Evaluated e
      | Ok _ -> Outcome.Failed (Outcome.Non_finite_estimate, "estimate not finite")))

(* What a sweep's outcomes must agree on, traced or not. The evaluations
   are kept as a digest of their bytes, so a run holds no sweep's full
   result and its memory does not grow with the number of sweeps. *)
type tally = {
  sampled : int;
  evaluated : int;
  lint_pruned : int;
  absint_pruned : int;
  dep_pruned : int;
  sym_pruned : int;
  failures : int;
  pareto : Outcome.evaluation list;
  digest : Digest.t;
}

let digest (evals : Outcome.evaluation list) =
  Digest.string (Marshal.to_string evals [ Marshal.No_sharing ])

let tally_of_result (r : Explore.result) =
  {
    sampled = r.Explore.sampled;
    evaluated = List.length r.Explore.evaluations;
    lint_pruned = r.Explore.lint_pruned;
    absint_pruned = r.Explore.absint_pruned;
    dep_pruned = r.Explore.dep_pruned;
    sym_pruned = r.Explore.sym_pruned;
    failures = List.length r.Explore.failures;
    pareto = r.Explore.pareto;
    digest = digest r.Explore.evaluations;
  }

let tally_of_entries ~pareto ~sampled entries =
  let n p = List.length (List.filter p entries) in
  let evaluations =
    List.filter_map (function Outcome.Evaluated e -> Some e | _ -> None) entries
  in
  {
    sampled;
    evaluated = List.length evaluations;
    lint_pruned = n (( = ) Outcome.Pruned);
    absint_pruned = n (( = ) Outcome.Absint_pruned);
    dep_pruned = n (( = ) Outcome.Dep_pruned);
    sym_pruned = n (( = ) Outcome.Sym_pruned);
    failures = n (function Outcome.Failed _ -> true | _ -> false);
    pareto = pareto evaluations;
    digest = digest evaluations;
  }

let save_checkpoint ~path ~space ~seed ~max_points ~total entries =
  Trace.span "checkpoint.save" (fun () ->
      Checkpoint.save ~path
        {
          Checkpoint.space_name = Space.name space;
          seed;
          max_points;
          total;
          params = List.map fst (Space.dims space);
          entries = List.rev entries;
          truncated_tail = false;
        });
  Trace.count ~by:(Unix.stat path).Unix.st_size "checkpoint.bytes_written"

(* One sweep with the default config. [checkpoint] = [(path, every)]
   mirrors a checkpointed sweep that rewrites [path] every [every] points
   and once at the end, after a resume probe of [path]. *)
let sweep ev memo ?checkpoint (app : App.t) ~seed ~max_points =
  Trace.app := app.App.name;
  let sizes = app.App.paper_sizes in
  let space = app.App.space sizes in
  let generate params = app.App.generate ~sizes ~params in
  let points = Trace.span "explore.sample" (fun () -> Space.sample space ~seed ~max_points) in
  let total = List.length points in
  (match checkpoint with
  | Some (path, _) when Sys.file_exists path ->
    ignore (Trace.span "checkpoint.load" (fun () -> Checkpoint.load ~path))
  | _ -> ());
  let gate = Trace.span "symgate.derive" (fun () -> Symgate.derive ~space ~generate ()) in
  let entries = ref [] in
  List.iteri
    (fun i p ->
      let entry =
        match Trace.span "symgate.verdict" (fun () -> Symgate.verdict gate p) with
        | Symbolic.Refuted _ ->
          Trace.count "symgate.refuted";
          Outcome.Sym_pruned
        | Symbolic.Legal ->
          Trace.count "symgate.legal";
          evaluate ev memo ~proofs:false ~generate p
        | Symbolic.Unknown _ ->
          Trace.count "symgate.unknown";
          evaluate ev memo ~proofs:true ~generate p
      in
      entries := (i, entry) :: !entries;
      match checkpoint with
      | Some (path, every) when (i + 1) mod every = 0 ->
        save_checkpoint ~path ~space ~seed ~max_points ~total !entries
      | _ -> ())
    points;
  Option.iter
    (fun (path, _) -> save_checkpoint ~path ~space ~seed ~max_points ~total !entries)
    checkpoint;
  let entries = List.rev_map snd !entries in
  let t =
    tally_of_entries ~sampled:total entries
      ~pareto:(fun evs -> Trace.span "pareto" (fun () -> Explore.pareto_of evs))
  in
  Trace.count ~by:t.sampled "explore.sampled";
  Trace.count ~by:(t.sampled - t.evaluated - t.failures) "explore.pruned";
  t

(* One [estimate_batch] item as the server answers it: elaborate, then the
   estimate cache (no analysis). Returns the estimated cycles. *)
let batch_item ev memo (app : App.t) params =
  Trace.app := app.App.name;
  let design =
    Trace.span "generate" (fun () -> app.App.generate ~sizes:app.App.paper_sizes ~params)
  in
  let key = Trace.span "design_key" (fun () -> Design_key.to_string (Design_key.of_design design)) in
  match probe memo.estimates key with
  | Some e -> e.Outcome.estimate.Estimator.cycles
  | None ->
    let e = Trace.span "estimate" (fun () -> Eval.evaluation ~cache:false ev params design) in
    Hashtbl.replace memo.estimates key e;
    e.Outcome.estimate.Estimator.cycles
