(** Benchmark application interface.

    Each benchmark of Table II is a parameterized DHDL program: a function
    from (dataset sizes, design parameters) to a design instance, together
    with its design space for exploration and its CPU workload model for the
    Figure 6 comparison. *)

type sizes = (string * int) list
type params = (string * int) list

type t = {
  name : string;
  description : string;
  paper_sizes : sizes;  (** Dataset sizes from Table II. *)
  test_sizes : sizes;  (** Scaled-down sizes for functional validation. *)
  default_params : sizes -> params;  (** A sensible mid-range design point. *)
  space : sizes -> Dhdl_dse.Space.t;
  generate : sizes:sizes -> params:params -> Dhdl_ir.Ir.design;
  cpu_workload : sizes -> Dhdl_cpu.Cost_model.workload;
}

val size : sizes -> string -> int
(** Look up a dimension; raises [Failure] with a helpful message. *)

val get : params -> string -> int -> int
(** [get params name default] with a default for omitted parameters. *)

val generate_default : t -> sizes -> Dhdl_ir.Ir.design
(** Instantiate at the default parameters. *)

val resolve : t -> params -> params
(** [resolve t overrides] is the full binding a user's (possibly partial)
    binding stands for at paper sizes: [t.default_params] with each
    override replacing its entry, then any override the defaults do not
    name, in the given order. Generators fall back to their own defaults
    for omitted names, and those can differ from [default_params], so
    every user-facing surface resolves through here. *)

val instantiate : t -> params -> params * Dhdl_ir.Ir.design
(** [instantiate t overrides] is [resolve t overrides] and the design
    generated from it at paper sizes. Any exception the generator raises
    on the binding (say [Division_by_zero] on [tile=0]) becomes
    [Failure "cannot generate APP at k=v,...: <reason>"], so callers
    report it as a bad request instead of crashing. *)

val divisor_tile : n:int -> cap:int -> par:int -> int
(** Largest divisor of [n] at most [cap] divisible by [par] (falls back to
    the largest divisor, then [n]); keeps default design points legal. *)
