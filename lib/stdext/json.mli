(** Minimal JSON tree: enough to emit the experiment tables and
    telemetry snapshots as machine-readable output and to validate them
    in tests. No external dependencies. *)

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

val of_string : string -> (t, string) result
(** Strict parser for the subset produced by {!to_string} plus standard
    JSON ([\uXXXX] escapes are decoded to UTF-8). *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_list : t -> t list option
