(* The codec lives in [Dhdl_util.Json]; this alias keeps the
   [Dhdl_serve.Json] path that the benchmark harness and existing clients
   refer to. *)
include Dhdl_util.Json
