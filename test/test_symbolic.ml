(* The symbolic legality layer: expression/fit/predicate unit laws, the
   differential oracle (no symbolic [Legal]/[Refuted] verdict may ever
   contradict concrete analysis, over every registry app and seeded
   random bindings), the gate's routing assumption (a routed binding
   elaborates to its system's skeleton), the [Sym_pruned] checkpoint
   round-trip, byte-identity across jobs levels with the gate on, and
   the gate's point: a cold
   sweep with the gate on elaborates measurably fewer designs than
   [--no-symbolic] on an app with refutable regions.

   Runs under both `dune runtest` and the focused `dune build @symbolic`. *)

module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Space = Dhdl_dse.Space
module Symgate = Dhdl_dse.Symgate
module Symbolic = Dhdl_absint.Symbolic
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Design_key = Dhdl_model.Design_key

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_symbolic_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let app name = Registry.find name
let space_of a = a.App.space a.App.paper_sizes
let generate_of a p = a.App.generate ~sizes:a.App.paper_sizes ~params:p

(* Each registry app's gate, derived once and shared by the tests that
   sweep every app (gda's derivation alone takes over a second). *)
let gates =
  lazy
    (List.map
       (fun a -> (a.App.name, Symgate.derive ~space:(space_of a) ~generate:(generate_of a) ()))
       Registry.all)

let gate_of a = List.assoc a.App.name (Lazy.force gates)

(* ------------------------------------------------------------------ *)
(* Expression and predicate laws                                       *)
(* ------------------------------------------------------------------ *)

let test_expr_laws () =
  let open Symbolic in
  let x = Expr.var "x" and y = Expr.var "y" in
  let e = Expr.add (Expr.scale (Q.of_int 3) x) (Expr.sub y (Expr.of_int 7)) in
  (* 3x + y - 7 at x=5, y=2 *)
  (match Expr.eval_int e [ ("x", 5); ("y", 2) ] with
  | Some v -> check_int "3x + y - 7 evaluates" 10 v
  | None -> Alcotest.fail "eval returned None on fully bound expr");
  check_bool "missing param evaluates to None" true (Expr.eval e [ ("x", 5) ] = None);
  check_bool "x + y = y + x" true (Expr.equal (Expr.add x y) (Expr.add y x));
  check_bool "x - x = 0" true (Expr.equal (Expr.sub x x) Expr.zero);
  (* Rational coefficients stay exact: (1/2)x at x=4 is 2. *)
  let half_x = Expr.scale (Q.make 1 2) x in
  check_bool "(1/2)x at x=4" true (Expr.eval_int half_x [ ("x", 4) ] = Some 2);
  check_bool "(1/2)x at x=3 is not integral" true (Expr.eval_int half_x [ ("x", 3) ] = None)

let test_fit_recovers_affine () =
  let open Symbolic in
  (* Observations of 2a + 3b + 5 over a probe grid. *)
  let obs =
    List.concat_map
      (fun a -> List.map (fun b -> ([ ("a", a); ("b", b) ], (2 * a) + (3 * b) + 5)) [ 1; 2; 7 ])
      [ 0; 3; 10 ]
  in
  (match fit ~params:[ "a"; "b" ] obs with
  | None -> Alcotest.fail "fit failed on an exactly affine slot"
  | Some e ->
    List.iter
      (fun (b, v) ->
        check_bool "fitted expr reproduces every observation" true
          (Expr.eval_int e b = Some v))
      obs;
    check_bool "fitted expr extrapolates" true
      (Expr.eval_int e [ ("a", 100); ("b", 1) ] = Some 208));
  (* A non-affine slot (a*b) must be rejected, not approximated. *)
  let bad =
    List.concat_map
      (fun a -> List.map (fun b -> ([ ("a", a); ("b", b) ], a * b)) [ 1; 2; 5 ])
      [ 1; 3; 4 ]
  in
  check_bool "fit rejects a non-affine slot" true (fit ~params:[ "a"; "b" ] bad = None)

let test_predicate_semantics () =
  let open Symbolic in
  let p = Expr.var "p" and k = Expr.of_int 8 in
  let sys =
    {
      sy_skeleton = "test";
      sy_params = [ "p"; "t" ];
      sy_pinned = [ ("meta", 1) ];
      sy_checks =
        [
          {
            ck_code = "L013";
            ck_site = "pipe t";
            ck_legal = Some [ Pos (Le (p, k)) ];
            ck_refutes =
              [ { cl_desc = "window shares a cell"; cl_lits = [ Pos (Le (Expr.of_int 9, p)) ] } ];
            ck_assumed = false;
          };
          {
            ck_code = "L009";
            ck_site = "tiling";
            ck_legal = Some [ Pos (Divides (Expr.var "t", Expr.of_int 96)) ];
            ck_refutes =
              [
                {
                  cl_desc = "tile does not divide extent";
                  cl_lits = [ Neg (Divides (Expr.var "t", Expr.of_int 96)) ];
                };
              ];
            ck_assumed = false;
          };
        ];
      sy_legal_capable = true;
      sy_probes = 9;
      sy_note = "";
    }
  in
  let v b = Predicate.eval sys b in
  (match v [ ("p", 4); ("t", 32); ("meta", 1) ] with
  | Legal -> ()
  | _ -> Alcotest.fail "in-bounds dividing point must be Legal");
  (match v [ ("p", 12); ("t", 32); ("meta", 1) ] with
  | Refuted { code; _ } -> Alcotest.(check string) "refuted with the check's code" "L013" code
  | _ -> Alcotest.fail "p=12 must be Refuted");
  (match v [ ("p", 4); ("t", 7); ("meta", 1) ] with
  | Refuted { code; _ } -> Alcotest.(check string) "divisibility refutes" "L009" code
  | _ -> Alcotest.fail "t=7 must be Refuted");
  (* Pinned mismatch and missing params both fall to Unknown, never to a
     decided verdict. *)
  (match v [ ("p", 4); ("t", 32); ("meta", 0) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "pinned mismatch must be Unknown");
  (match v [ ("p", 4); ("meta", 1) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "missing param must be Unknown");
  (* An incapable system still refutes but never proves. *)
  let sys' = { sys with sy_legal_capable = false; sy_note = "limited" } in
  (match Predicate.eval sys' [ ("p", 4); ("t", 32); ("meta", 1) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "incapable system must not answer Legal");
  match Predicate.eval sys' [ ("p", 12); ("t", 32); ("meta", 1) ] with
  | Refuted _ -> ()
  | _ -> Alcotest.fail "incapable system still refutes"

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)
(* ------------------------------------------------------------------ *)

(* Replay symbolic verdicts against the concrete passes: [Refuted
   {code}] must be confirmed by a concrete error with that code, [Legal]
   by a fully clean concrete analysis. [Unknown] promises nothing.
   Soundness of the whole PR rests here, so every registry app is
   sworn in over a seed disjoint from the probe seed. *)
let oracle_points = 220
let oracle_seed = 90210

let concrete_flags d =
  let asum = Absint.summarize (Absint.analyze d) in
  let dsum = Dependence.summarize (Dependence.analyze d) in
  ( asum.Absint.s_bounds_refuted > 0,
    asum.Absint.s_banks_conflict > 0,
    dsum.Dependence.s_refuted > 0 )

let test_differential_oracle () =
  let legal_total = ref 0 and refuted_total = ref 0 and unknown_total = ref 0 in
  let per_app = Hashtbl.create 8 in
  List.iter
    (fun (a : App.t) ->
      let space = space_of a in
      let generate = generate_of a in
      let gate = gate_of a in
      let pts = Space.sample space ~seed:oracle_seed ~max_points:oracle_points in
      check_bool
        (Printf.sprintf "%s: oracle has a non-trivial sample" a.App.name)
        true
        (List.length pts >= 50);
      let legal = ref 0 and refuted = ref 0 in
      List.iter
        (fun p ->
          match Symgate.verdict gate p with
          | Symbolic.Unknown _ -> incr unknown_total
          | Symbolic.Refuted { code; witness } -> (
            incr refuted;
            incr refuted_total;
            let oob, bank, dep = concrete_flags (generate p) in
            let confirmed =
              match code with
              | "L009" -> oob
              | "L010" -> bank
              | "L013" -> dep
              | _ -> false
            in
            if not confirmed then
              Alcotest.fail
                (Printf.sprintf "%s: symbolic Refuted [%s] (%s) not confirmed concretely"
                   a.App.name code witness))
          | Symbolic.Legal ->
            incr legal;
            incr legal_total;
            let oob, bank, dep = concrete_flags (generate p) in
            if oob || bank || dep then
              Alcotest.fail
                (Printf.sprintf
                   "%s: symbolic Legal contradicted concretely (oob=%b bank=%b dep=%b)"
                   a.App.name oob bank dep))
        pts;
      Hashtbl.replace per_app a.App.name (!legal, !refuted))
    Registry.all;
  check_int "all seven registry apps sworn in" 7 (Hashtbl.length per_app);
  (* Non-vacuity: the oracle must have exercised both decided verdicts —
     kmeans has a refutable region (parDist beyond k), and the streaming
     apps prove Legal outright. *)
  let legal_of n = fst (Hashtbl.find per_app n) in
  let refuted_of n = snd (Hashtbl.find per_app n) in
  check_bool "kmeans has symbolically refuted points" true (refuted_of "kmeans" > 0);
  check_bool "dotproduct has symbolically proved points" true (legal_of "dotproduct" > 0);
  check_bool "oracle saw Legal verdicts" true (!legal_total > 0);
  check_bool "oracle saw Refuted verdicts" true (!refuted_total > 0)

(* The gate routes a binding to the one system whose pinned parameters it
   satisfies, assuming generators change graph structure only through
   such flag parameters. Check that assumption: a binding exactly one
   system applies to must elaborate to that system's skeleton. *)
let routing_points = 300
let routing_seed = 4242

let test_routing_matches_skeleton () =
  List.iter
    (fun (a : App.t) ->
      let pts = Space.sample (space_of a) ~seed:routing_seed ~max_points:routing_points in
      check_bool
        (Printf.sprintf "%s: at least 200 routing points" a.App.name)
        true
        (List.length pts >= 200);
      let systems = Symgate.systems (gate_of a) in
      let routed = ref 0 in
      List.iter
        (fun p ->
          match List.filter (fun sys -> Symbolic.Predicate.applies sys p) systems with
          | [ sys ] ->
            incr routed;
            let sk = Design_key.skeleton_hash (generate_of a p) in
            if sk <> sys.Symbolic.sy_skeleton then
              Alcotest.failf "%s: binding %s routed to skeleton %s but elaborates to %s"
                a.App.name
                (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p))
                sys.Symbolic.sy_skeleton sk
          | _ -> ())
        pts;
      check_bool (a.App.name ^ ": some bindings are routed") true (!routed > 0))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Sweep integration: Sym_pruned, checkpoints, byte identity           *)
(* ------------------------------------------------------------------ *)

let kmeans_sweep ?(points = 120) ?(jobs = 1) ?(symbolic = true) ?checkpoint ?(resume = false) ev
    =
  let a = app "kmeans" in
  let cfg =
    Explore.Config.make ~seed:2016 ~max_points:points ~symbolic ~jobs ?checkpoint ~resume ()
  in
  Explore.run cfg ev ~space:(space_of a) ~generate:(generate_of a)

let eval_points (r : Explore.result) = List.map (fun e -> e.Outcome.point) r.Explore.evaluations

let test_sym_pruned_checkpoint_roundtrip () =
  let ev = Eval.create (Lazy.force estimator) in
  let path = tmp "roundtrip.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let r1 = kmeans_sweep ~checkpoint:path ev in
  check_bool "gate prunes points before elaboration" true (r1.Explore.sym_pruned > 0);
  check_bool "checkpoint mentions sym_pruned entries" true
    (let s = read_file path in
     let needle = "\"kind\":\"sym_pruned\"" in
     let nlen = String.length needle in
     let rec find i =
       i + nlen <= String.length s && (String.sub s i nlen = needle || find (i + 1))
     in
     find 0);
  (* Resuming replays every entry (including Sym_pruned) from the file
     and recomputes nothing. *)
  let r2 = kmeans_sweep ~checkpoint:path ~resume:true ev in
  check_int "resume reuses every entry" r2.Explore.processed r2.Explore.resumed;
  check_int "resume keeps sym_pruned" r1.Explore.sym_pruned r2.Explore.sym_pruned;
  check_bool "resume reproduces the evaluations" true (eval_points r1 = eval_points r2);
  Sys.remove path

let test_gate_byte_identity_across_jobs () =
  let ev = Eval.create (Lazy.force estimator) in
  let files =
    List.map
      (fun jobs ->
        let path = tmp (Printf.sprintf "ident_j%d.jsonl" jobs) in
        if Sys.file_exists path then Sys.remove path;
        let r = kmeans_sweep ~jobs ~checkpoint:path ev in
        check_bool "parallel sweep still sym-prunes" true (r.Explore.sym_pruned > 0);
        path)
      [ 1; 2; 4 ]
  in
  match List.map read_file files with
  | [] -> assert false
  | first :: rest ->
    List.iteri
      (fun i other ->
        check_bool
          (Printf.sprintf "checkpoint %d is byte-identical to the sequential one" (i + 1))
          true (String.equal first other))
      rest;
    List.iter Sys.remove files

let test_gate_reduces_elaborations () =
  let ev = Eval.create (Lazy.force estimator) in
  let count = ref 0 in
  let a = app "kmeans" in
  let counted p =
    incr count;
    generate_of a p
  in
  let run ~symbolic =
    count := 0;
    let cfg = Explore.Config.make ~seed:2016 ~max_points:300 ~symbolic () in
    let r = Explore.run cfg ev ~space:(space_of a) ~generate:counted in
    (r, !count)
  in
  let r_on, gen_on = run ~symbolic:true in
  let r_off, gen_off = run ~symbolic:false in
  (* The gate's entire point: strictly fewer elaborations, identical
     survivors. Probe elaborations count against the gate, so this also
     checks that derivation amortizes at sweep scale. *)
  check_bool
    (Printf.sprintf "gate on generates less (on=%d off=%d)" gen_on gen_off)
    true (gen_on < gen_off);
  check_bool "gate on sym-prunes" true (r_on.Explore.sym_pruned > 0);
  check_int "gate off never sym-prunes" 0 r_off.Explore.sym_pruned;
  check_bool "same evaluated points either way" true (eval_points r_on = eval_points r_off);
  check_int "same total pruned either way"
    (r_off.Explore.lint_pruned + r_off.Explore.absint_pruned + r_off.Explore.dep_pruned)
    (r_on.Explore.lint_pruned + r_on.Explore.absint_pruned + r_on.Explore.dep_pruned
   + r_on.Explore.sym_pruned)

let () =
  Alcotest.run "symbolic"
    [
      ( "domain",
        [
          Alcotest.test_case "expression laws" `Quick test_expr_laws;
          Alcotest.test_case "fit recovers affine slots exactly" `Quick test_fit_recovers_affine;
          Alcotest.test_case "predicate semantics" `Quick test_predicate_semantics;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "symbolic never contradicts concrete" `Quick
            test_differential_oracle;
          Alcotest.test_case "routed bindings elaborate to their skeleton" `Quick
            test_routing_matches_skeleton;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "sym_pruned checkpoint roundtrip + resume" `Quick
            test_sym_pruned_checkpoint_roundtrip;
          Alcotest.test_case "byte identity across jobs" `Quick test_gate_byte_identity_across_jobs;
          Alcotest.test_case "gate reduces elaborations" `Quick test_gate_reduces_elaborations;
        ] );
    ]
