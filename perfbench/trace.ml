(* Spans and counters recorded by the benchmark itself, around calls into
   each layer's public functions. Spans are flat (no layer call nests
   inside another), so a layer's self time is simply the sum of its span
   durations, and whatever the traced wall time leaves over is the
   explorer's own bookkeeping. *)

let now = Unix.gettimeofday

(* Linear-interpolated quantile of an unsorted sample; 0 when empty. *)
let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

type layer = {
  mutable calls : int;
  mutable secs : float;
  mutable samples : float list;  (* seconds, one per call *)
  per_app : (string, float list) Hashtbl.t;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let counters : (string, int) Hashtbl.t = Hashtbl.create 32

(* The app whose sweep is being traced, for the per-app p50s. *)
let app = ref ""

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { calls = 0; secs = 0.0; samples = []; per_app = Hashtbl.create 8 } in
    Hashtbl.add layers name l;
    l

let record name dt =
  let l = layer name in
  l.calls <- l.calls + 1;
  l.secs <- l.secs +. dt;
  l.samples <- dt :: l.samples;
  let prev = Option.value (Hashtbl.find_opt l.per_app !app) ~default:[] in
  Hashtbl.replace l.per_app !app (dt :: prev)

(* Time one call into a layer. A raising call still counts: the failure
   barrier it feeds is part of the decision path. *)
let span name f =
  let t0 = now () in
  match f () with
  | r ->
    record name (now () -. t0);
    r
  | exception e ->
    record name (now () -. t0);
    raise e

let count ?(by = 1) name =
  Hashtbl.replace counters name (by + Option.value (Hashtbl.find_opt counters name) ~default:0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0
let calls name = match Hashtbl.find_opt layers name with Some l -> l.calls | None -> 0
let seconds name = match Hashtbl.find_opt layers name with Some l -> l.secs | None -> 0.0

let us_quantile q name =
  match Hashtbl.find_opt layers name with
  | Some l -> 1e6 *. quantile q l.samples
  | None -> 0.0

let app_us_p50 name app =
  match Hashtbl.find_opt layers name with
  | Some l -> (
    match Hashtbl.find_opt l.per_app app with Some xs -> 1e6 *. Dhdl_util.Stats.median xs | None -> 0.0)
  | None -> 0.0

(* Sum of every layer's self time. *)
let total_seconds () = Hashtbl.fold (fun _ l acc -> acc +. l.secs) layers 0.0

let reset () =
  Hashtbl.reset layers;
  Hashtbl.reset counters;
  app := ""
