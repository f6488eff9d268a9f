(** Merkle-Damgard padding and block loop shared by {!Sha1} and
    {!Sha256}. *)

val digest :
  compress:(int array -> int array -> bytes -> int -> unit) ->
  int array ->
  int array ->
  bytes ->
  bytes
(** [digest ~compress h w msg] runs [compress h w block off] on every
    64-byte block of [msg] and its padding, where [h] is the initial
    state (32-bit words, updated in place) and [w] the message schedule
    scratch; returns [h] serialised big-endian. [msg] is only read. *)
