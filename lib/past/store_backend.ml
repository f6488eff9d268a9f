module Id = Past_id.Id

type kind = Primary | Diverted of { on_behalf : Id.t }
type entry = { cert : Certificate.file; data : string; kind : kind }

module type S = sig
  type t

  val backend_name : string
  val put : t -> entry -> unit
  val get : t -> Id.t -> entry option
  val mem : t -> Id.t -> bool
  val size_of : t -> Id.t -> int option
  val replication_of : t -> Id.t -> int option
  val delete : t -> Id.t -> unit
  val iter : t -> (entry -> unit) -> unit
  val length : t -> int
  val iter_sizes : t -> (int -> unit) -> unit
  val flush : t -> unit
  val close : t -> unit
end

(* The historical in-memory table, verbatim: same initial bucket count
   and same replace/remove call pattern as the pre-backend Store, so
   iteration order — which decides re-replication message order and
   therefore the EXP14 golden bytes — is unchanged. *)
module Mem = struct
  type t = entry Id.Table.t

  let backend_name = "mem"
  let create () = Id.Table.create 64
  let put t e = Id.Table.replace t e.cert.Certificate.file_id e
  let get t id = Id.Table.find_opt t id
  let mem t id = Id.Table.mem t id

  let size_of t id =
    match Id.Table.find_opt t id with
    | Some e -> Some e.cert.Certificate.size
    | None -> None

  let replication_of t id =
    match Id.Table.find_opt t id with
    | Some e -> Some e.cert.Certificate.replication
    | None -> None

  let delete t id = Id.Table.remove t id

  let iter t f = Id.Table.iter (fun _ e -> f e) t
  let length t = Id.Table.length t
  let iter_sizes t f = Id.Table.iter (fun _ e -> f e.cert.Certificate.size) t

  let flush _ = ()
  let close _ = ()
end
