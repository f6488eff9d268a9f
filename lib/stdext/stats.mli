(** Descriptive statistics over float samples, used to summarise
    experiment runs into the rows the paper reports. *)

type t
(** Mutable accumulator of samples. *)

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** 0 if empty. *)

val stddev : t -> float
(** Population standard deviation; 0 if fewer than two samples. *)

val min : t -> float
val max : t -> float
(** [min]/[max] raise [Invalid_argument] if empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in \[0,100\], nearest-rank on the sorted
    samples. Raises [Invalid_argument] if empty. *)

val median : t -> float

val to_list : t -> float list
(** Samples in insertion order. *)
