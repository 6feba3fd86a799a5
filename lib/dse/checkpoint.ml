module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model
module R = Dhdl_device.Resources
module Json = Dhdl_util.Json

type t = {
  space_name : string;
  seed : int;
  max_points : int;
  total : int;
  params : string list;
  entries : (int * Outcome.entry) list;
  truncated_tail : bool;
}

let version = 1

(* ------------------------------------------------------------------ *)
(* Rendering.  Floats are written as C99 hex literals ("%h") so that a
   loaded checkpoint reproduces the original values bit-for-bit — the
   resume guarantee is that a resumed sweep equals an uninterrupted one
   structurally, floats included. *)

let hex f = Json.Str (Printf.sprintf "%h" f)
let ints xs = Json.List (List.map (fun n -> Json.Int n) xs)
let tagged kind i fields = Json.Obj (("kind", Json.Str kind) :: ("i", Json.Int i) :: fields)

let entry_json i (e : Outcome.entry) =
  match e with
  | Outcome.Pruned -> tagged "pruned" i []
  | Outcome.Absint_pruned -> tagged "absint_pruned" i []
  | Outcome.Dep_pruned -> tagged "dep_pruned" i []
  | Outcome.Sym_pruned -> tagged "sym_pruned" i []
  | Outcome.Failed (stage, msg) ->
    tagged "failed" i [ ("stage", Json.Str (Outcome.stage_name stage)); ("msg", Json.Str msg) ]
  | Outcome.Evaluated ev ->
    let est = ev.Outcome.estimate in
    let a = est.Estimator.area in
    let raw = est.Estimator.raw in
    let res = raw.Area_model.resources in
    tagged "eval" i
      [
        ("point", ints (List.map snd ev.Outcome.point));
        ("valid", Json.Bool ev.Outcome.valid);
        ("alm_pct", hex ev.Outcome.alm_pct);
        ("dsp_pct", hex ev.Outcome.dsp_pct);
        ("bram_pct", hex ev.Outcome.bram_pct);
        ("cycles", hex est.Estimator.cycles);
        ("seconds", hex est.Estimator.seconds);
        ( "area",
          ints
            [ a.Estimator.alms; a.Estimator.luts; a.Estimator.regs; a.Estimator.dsps;
              a.Estimator.brams; a.Estimator.routing_luts; a.Estimator.unavailable_luts;
              a.Estimator.duplicated_regs; a.Estimator.duplicated_brams ] );
        ( "raw",
          ints
            [ res.R.lut_packable; res.R.lut_unpackable; res.R.regs; res.R.dsps; res.R.brams;
              raw.Area_model.nets; raw.Area_model.tree_depth; raw.Area_model.streams;
              raw.Area_model.ctrl_count; raw.Area_model.double_buffers;
              raw.Area_model.prim_count ] );
        ("avg_fanout", hex raw.Area_model.avg_fanout);
      ]

let render t =
  let buf = Buffer.create 4096 in
  let line v =
    Json.add buf v;
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       [
         ("kind", Json.Str "header");
         ("version", Json.Int version);
         ("space", Json.Str t.space_name);
         ("seed", Json.Int t.seed);
         ("max_points", Json.Int t.max_points);
         ("total", Json.Int t.total);
         ("params", Json.List (List.map (fun p -> Json.Str p) t.params));
       ]);
  List.iter (fun (i, e) -> line (entry_json i e)) t.entries;
  Buffer.contents buf

(* Atomic write: the checkpoint on disk is always a complete, parseable
   snapshot — a crash mid-write leaves the previous checkpoint intact. *)
let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (render t));
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Parsing.  Every malformed line, missing field or out-of-range value
   raises [Json.Bad]. *)

let bad msg = raise (Json.Bad msg)
let hex_float j = Option.bind (Json.to_string j) float_of_string_opt

let list_of conv j =
  Option.bind (Json.to_list j) (fun xs ->
      let ys = List.filter_map conv xs in
      if List.compare_lengths ys xs = 0 then Some ys else None)

let int_list = list_of Json.to_int

let entry_of_json ~params j : int * Outcome.entry =
  let i = Json.get "i" Json.to_int j in
  match Json.get "kind" Json.to_string j with
  | "pruned" -> (i, Outcome.Pruned)
  | "absint_pruned" -> (i, Outcome.Absint_pruned)
  | "dep_pruned" -> (i, Outcome.Dep_pruned)
  | "sym_pruned" -> (i, Outcome.Sym_pruned)
  | "failed" ->
    let name = Json.get "stage" Json.to_string j in
    let stage =
      match Outcome.stage_of_name name with
      | Some s -> s
      | None -> bad ("unknown failure stage " ^ name)
    in
    (i, Outcome.Failed (stage, Json.get "msg" Json.to_string j))
  | "eval" ->
    let point_vals = Json.get "point" int_list j in
    if List.compare_lengths point_vals params <> 0 then
      bad "point arity does not match header params";
    let point = List.combine params point_vals in
    let hex name = Json.get name hex_float j in
    let area =
      match Json.get "area" int_list j with
      | [ alms; luts; regs; dsps; brams; routing_luts; unavailable_luts; duplicated_regs;
          duplicated_brams ] ->
        { Estimator.alms; luts; regs; dsps; brams; routing_luts; unavailable_luts;
          duplicated_regs; duplicated_brams }
      | _ -> bad "area must have 9 fields"
    in
    let raw =
      match Json.get "raw" int_list j with
      | [ lut_packable; lut_unpackable; regs; dsps; brams; nets; tree_depth; streams; ctrl_count;
          double_buffers; prim_count ] ->
        { Area_model.resources = { R.lut_packable; lut_unpackable; regs; dsps; brams };
          nets; avg_fanout = hex "avg_fanout"; tree_depth; streams; ctrl_count; double_buffers;
          prim_count }
      | _ -> bad "raw must have 11 fields"
    in
    let estimate =
      { Estimator.area; cycles = hex "cycles"; seconds = hex "seconds"; raw }
    in
    ( i,
      Outcome.Evaluated
        { Outcome.point; estimate; valid = Json.get "valid" Json.to_bool j;
          alm_pct = hex "alm_pct"; dsp_pct = hex "dsp_pct"; bram_pct = hex "bram_pct" } )
  | kind -> bad ("unknown entry kind " ^ kind)

let load ~path =
  try
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    match lines with
    | [] -> Error (path ^ ": empty checkpoint")
    | header :: rest ->
      let h = Json.parse_exn header in
      if Json.get "kind" Json.to_string h <> "header" then bad "first line is not a header";
      let v = Json.get "version" Json.to_int h in
      if v <> version then bad (Printf.sprintf "unsupported checkpoint version %d" v);
      let params = Json.get "params" (list_of Json.to_string) h in
      (* A crash mid-append can tear the final line (the atomic temp-file +
         rename protocol makes this impossible for [save], but other
         writers — or a torn copy — may hand us such a file). A torn tail
         carries no information the sweep cannot recompute, so drop it and
         flag the load instead of rejecting the whole checkpoint; a parse
         error on any non-final line is still real corruption. *)
      let rec parse_entries acc = function
        | [] -> (List.rev acc, false)
        | [ last ] -> (
          match entry_of_json ~params (Json.parse_exn last) with
          | e -> (List.rev (e :: acc), false)
          | exception Json.Bad _ -> (List.rev acc, true))
        | line :: rest -> parse_entries (entry_of_json ~params (Json.parse_exn line) :: acc) rest
      in
      let entries, truncated_tail = parse_entries [] rest in
      Ok
        {
          space_name = Json.get "space" Json.to_string h;
          seed = Json.get "seed" Json.to_int h;
          max_points = Json.get "max_points" Json.to_int h;
          total = Json.get "total" Json.to_int h;
          params;
          entries = List.sort (fun (a, _) (b, _) -> compare a b) entries;
          truncated_tail;
        }
  with
  | Json.Bad msg -> Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path msg)
  | Sys_error msg -> Error msg
