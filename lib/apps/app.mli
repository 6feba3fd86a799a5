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
      (** Fills a partial binding from [default_params sizes] (see
          {!merge}), so an omitted parameter means its default. *)
  cpu_workload : sizes -> Dhdl_cpu.Cost_model.workload;
}

val size : sizes -> string -> int
(** Look up a dimension; raises [Failure] with a helpful message. *)

val get : params -> string -> int -> int
(** [get params name default] with a default for omitted parameters. *)

val param : params -> string -> int
(** [param params name] for a binding {!merge} completed; raises
    [Failure] naming the parameter when it is absent. *)

val generate_default : t -> sizes -> Dhdl_ir.Ir.design
(** Instantiate at the default parameters. *)

val merge : params -> params -> params
(** [merge defaults overrides]: [defaults] with each override replacing
    its entry, then any override the defaults do not name, in the given
    order. A full binding in [defaults]' order comes back unchanged. *)

val resolve : t -> params -> params
(** [resolve t overrides] is the full binding a user's (possibly partial)
    binding stands for at paper sizes: [merge (t.default_params
    t.paper_sizes) overrides] — the binding [t.generate] builds. *)

val instantiate : t -> params -> params * Dhdl_ir.Ir.design
(** [instantiate t overrides] is [resolve t overrides] and the design
    generated from it at paper sizes. Any exception the generator raises
    on the binding (say [Division_by_zero] on [tile=0]) becomes
    [Failure "cannot generate APP at k=v,...: <reason>"], so callers
    report it as a bad request instead of crashing. *)

val divisor_tile : n:int -> cap:int -> par:int -> int
(** Largest divisor of [n] at most [cap] divisible by [par] (falls back to
    the largest divisor, then [n]); keeps default design points legal. *)
