(** Minimal JSON tree: enough to emit the experiment tables and
    telemetry snapshots as machine-readable output. No external
    dependencies. The tests' parser lives with them ([test/json.ml]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialise. Non-finite floats print as [null]; [indent] pretty-prints
    with two-space indentation. *)
