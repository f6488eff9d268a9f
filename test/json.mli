(** {!Past_stdext.Json} plus a parser, for tests that read the JSON
    output back. *)

include module type of struct
  include Past_stdext.Json
end

val of_string : string -> (t, string) result
(** Strict parser for the subset produced by {!to_string} plus standard
    JSON ([\uXXXX] escapes are decoded to UTF-8). *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_list : t -> t list option
