(** Imperative binary min-heap, parameterised by an ordering function.

    The reference [Past_stdext.Timing_wheel]'s pop order is tested
    against. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> 'a t
(** [create ~leq] builds an empty heap ordered so that the element for
    which [leq x y] holds against all others is popped first. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
(** Remove and return the minimum. *)

val clear : 'a t -> unit
