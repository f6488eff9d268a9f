(** A reference to a remote Pastry node: its nodeId and network
    address. This is exactly what routing-table, leaf-set and
    neighborhood-set entries map between (paper §2.2). *)

type t = { id : Past_id.Id.t; addr : Past_simnet.Net.addr }

val make : id:Past_id.Id.t -> addr:Past_simnet.Net.addr -> t
val equal : t -> t -> bool
