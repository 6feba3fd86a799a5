(** The individual lint passes. Use {!Lint.passes} / {!Lint.check} for the
    assembled registry; these are exposed so tests can exercise one pass in
    isolation. *)

module Ir = Dhdl_ir.Ir
module Diag = Dhdl_ir.Diag
module Target = Dhdl_device.Target

val race_pass : Ir.design -> Diag.t list
(** L001: write-write / read-write races across concurrent [Parallel]
    stages (queues exempt). Candidates come from read/write-set overlap;
    the loop-carried dependence analysis drops pairs it proves disjoint
    and attaches a concrete overlap witness when it proves a collision. *)

val metapipe_pass : Ir.design -> Diag.t list
(** L002: buffers crossing pipelined [Loop] stages without [mem_double]. *)

val banking_pass : Ir.design -> Diag.t list
(** L003: BRAM access vectors wider than the inferred banking. *)

val dead_mem_pass : Ir.design -> Diag.t list
(** L004: never-accessed on-chip memories; BRAMs written but never read. *)

val dead_value_pass : Ir.design -> Diag.t list
(** L005: [Sop]/[Sload] results never consumed (and not reduce inputs). *)

val capacity_pass : Target.t -> Ir.design -> Diag.t list
(** L006: device fit. Errors when the replication-scaled BRAM-block lower
    bound already exceeds the device; warns on very large single memories. *)

val queue_pass : Ir.design -> Diag.t list
(** L007: queue protocol — push without pop, pop without push,
    zero-capacity queues. *)

val loop_pass : Ir.design -> Diag.t list
(** L008: zero-trip loops, par > trip, non-divisor par remainder waste. *)

val oob_pass : Ir.design -> Diag.t list
(** L009: proven out-of-bounds accesses (witness iteration vector in the
    message), from {!Dhdl_absint.Absint}. *)

val bank_conflict_pass : Ir.design -> Diag.t list
(** L010: proven same-cycle bank conflicts (concrete lane pair in the
    message), from {!Dhdl_absint.Absint}. *)

val spurious_double_pass : Ir.design -> Diag.t list
(** L011: double buffers no pipelined stage crossing requires. *)

val unsafe_pipelining_pass : Ir.design -> Diag.t list
(** L013: pipes whose vectorization is proven illegal — two lanes of one
    vector touch the same word with a write between them; the message
    carries the concrete lane pair, iteration vectors and index. *)

val mem_limit_words : int
(** Single-memory word-count threshold for the L006 tiling warning. *)

val safe_trip : Ir.counter list -> int
(** Trip count that tolerates degenerate counters (returns 0 instead of
    asserting like {!Ir.counter_trip}); delegates to {!Ir.counter_trip},
    which clamps degenerate counters to zero. *)
