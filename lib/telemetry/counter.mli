(** Monotonic event counter. *)

type t

val create : unit -> t
val incr : t -> unit
val value : t -> int
