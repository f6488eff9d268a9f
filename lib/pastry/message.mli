(** Wire messages of the Pastry overlay, parameterised by the
    application payload carried for the layer above (PAST). *)

type 'a routed = {
  key : Past_id.Id.t;  (** routing destination in the 128-bit space *)
  origin : Peer.t;  (** node that initiated the route *)
  sender : Peer.t;  (** previous hop (receivers learn peers from it) *)
  trace : int;  (** id of the route span tying this message's hop trace events together *)
  hops : int;
  dist : float;  (** accumulated proximity along the route *)
  path : Past_simnet.Net.addr list;  (** visited nodes, most recent first *)
  payload : 'a routed_payload;
}

and 'a routed_payload =
  | Join_request
      (** routed towards the joiner's own id; en-route nodes contribute
          routing-table rows, the final node its leaf set (§2.2) *)
  | App of 'a

type 'a t =
  | Routed of 'a routed
  | Join_rows of { from : Peer.t; rows : (int * Peer.t list) list }
      (** routing-table rows contributed by a node on the join route *)
  | Join_leaf of { from : Peer.t; smaller : Peer.t list; larger : Peer.t list }
  | Nbhd_reply of { from : Peer.t; peers : Peer.t list }
  | Announce of { from : Peer.t }
      (** a newly joined or recovered node notifying nodes that need to
          know of its arrival *)
  | Keepalive of { from : Peer.t }
  | Keepalive_ack of { from : Peer.t }
  | Leaf_request of { from : Peer.t }
  | Leaf_reply of { from : Peer.t; smaller : Peer.t list; larger : Peer.t list }
  | Direct of { from : Peer.t; payload : 'a }

val describe : _ t -> string
(** Constructor name, for logs and traffic accounting. *)
