type sizes = (string * int) list
type params = (string * int) list

type t = {
  name : string;
  description : string;
  paper_sizes : sizes;
  test_sizes : sizes;
  default_params : sizes -> params;
  space : sizes -> Dhdl_dse.Space.t;
  generate : sizes:sizes -> params:params -> Dhdl_ir.Ir.design;
  cpu_workload : sizes -> Dhdl_cpu.Cost_model.workload;
}

let size sizes name =
  match List.assoc_opt name sizes with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing dataset dimension %S" name)

let get params name default =
  match List.assoc_opt name params with Some v -> v | None -> default

let param params name =
  match List.assoc_opt name params with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing design parameter %S" name)

let generate_default t sizes = t.generate ~sizes ~params:(t.default_params sizes)

let merge defaults overrides =
  let merged =
    List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k overrides) ~default:v)) defaults
  in
  merged @ List.filter (fun (k, _) -> not (List.mem_assoc k merged)) overrides

let resolve t overrides = merge (t.default_params t.paper_sizes) overrides

let instantiate t overrides =
  let params = resolve t overrides in
  match t.generate ~sizes:t.paper_sizes ~params with
  | design -> (params, design)
  | exception e ->
    let why = match e with Failure msg -> msg | e -> Printexc.to_string e in
    failwith
      (Printf.sprintf "cannot generate %s at %s: %s" t.name
         (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
         why)

(* Largest divisor of [n] that is <= [cap] and divisible by [par]; used by
   default design points so they are legal at any dataset size. Every
   [generate] call computes the defaults, so this scans the multiples of
   [par] down from the cap (a handful of steps at paper sizes) instead of
   listing all divisors of [n], which costs O(sqrt n) per call. *)
let divisor_tile ~n ~cap ~par =
  let rec down step d =
    if d < 1 then None else if n mod d = 0 then Some d else down step (d - step)
  in
  let top = min n cap in
  match down par (top / par * par) with
  | Some d -> d
  | None -> Option.value (down 1 top) ~default:n
