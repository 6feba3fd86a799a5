(** The project's one JSON codec.

    Every JSON document the tools read or write goes through this module:
    DSE checkpoints, the telemetry JSONL and Chrome-trace exports, the
    serve wire protocol, and the [--json] reports of [lint], [analyze] and
    [profile]. It covers the full JSON grammar (numbers via
    [int_of_string] / [float_of_string]) and adds one non-standard
    constructor, {!Raw}, for writers whose byte layout is pinned. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Pre-rendered JSON, emitted verbatim by {!render}; never produced
          by {!parse}. Used where a fixed layout is part of a file format,
          e.g. the telemetry exports' three-decimal numbers. *)

exception Bad of string
(** A malformed document ({!parse_exn}) or a missing / ill-typed field
    ({!get}). The message names the offset or the field. *)

(** {1 Writing} *)

val render : t -> string
(** Compact single-line rendering (never contains ['\n'], so a rendered
    value is always one JSONL line). A [Float] always renders with a ['.']
    or an exponent, so it parses back as a [Float]. *)

val add : Buffer.t -> t -> unit
(** [add buf v] appends [render v] to [buf]. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes. *)

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; anything after
    the value is an error). [Error] carries a message with an offset.
    Integral number lexemes parse as [Int], all others as [Float]. *)

val parse_exn : string -> t
(** {!parse}, raising {!Bad} instead of returning [Error]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_string : t -> string option
val to_int : t -> int option
(** [Int] directly; a [Float] with an integral value also converts. *)

val to_float : t -> float option
(** [Float] directly; an [Int] also converts. *)

val to_bool : t -> bool option
val to_list : t -> t list option

val obj_or_empty : t -> (string * t) list
(** The fields of an object, [[]] for anything else. *)

val get : string -> (t -> 'a option) -> t -> 'a
(** [get name conv v] is field [name] of [v] converted by [conv], e.g.
    [get "i" to_int v]. Raises {!Bad} when the field is missing or
    [conv] rejects it. *)
