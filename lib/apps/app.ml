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

let generate_default t sizes = t.generate ~sizes ~params:(t.default_params sizes)

let resolve t overrides =
  let merged =
    List.map
      (fun (k, v) -> (k, Option.value (List.assoc_opt k overrides) ~default:v))
      (t.default_params t.paper_sizes)
  in
  merged @ List.filter (fun (k, _) -> not (List.mem_assoc k merged)) overrides

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
   default design points so they are legal at any dataset size. *)
let divisor_tile ~n ~cap ~par =
  let ds = Dhdl_util.Intmath.divisors_up_to n cap in
  match List.rev (List.filter (fun d -> d mod par = 0) ds) with
  | d :: _ -> d
  | [] -> ( match List.rev ds with d :: _ -> d | [] -> n)
