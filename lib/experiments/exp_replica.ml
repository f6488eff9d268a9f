(* EXP5 — which replica does a lookup reach? (paper claim C4)

   "Client requests to retrieve a file are routed to a node that is
   'close in the network' to the client that issued the request, among
   all live nodes that store the requested file" (§1), and "among 5
   replicated copies of a file, Pastry is able to find the 'nearest'
   copy in 76% of all lookups and it finds one of the two 'nearest'
   copies in 92% of all lookups" (§2.2 "Locality").

   Mechanism: a lookup is satisfied by ANY of the k replicas, so at
   each hop the current node checks whether any replica holder appears
   in its (proximity-biased) state and redirects to the proximally
   nearest one. Because Pastry's early hops are short, the node doing
   the redirect is near the client, and so is the chosen replica. *)

module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Peer = Past_pastry.Peer
module Leaf_set = Past_pastry.Leaf_set
module Routing_table = Past_pastry.Routing_table
module Neighborhood = Past_pastry.Neighborhood
module Id = Past_id.Id
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

type params = { n : int; k : int; lookups : int; trials : int; seed : int }

let default_params = { n = 5000; k = 5; lookups = 3000; trials = 4; seed = 13 }

type result = {
  lookups_done : int;
  hit_nearest : int;
  hit_two_nearest : int;
  rank_counts : int array;  (** index r: lookups that hit the (r+1)-th nearest replica *)
  params : params;
}

(* Replica holders visible in a node's state: leaf set, routing table
   and neighborhood entries. *)
let known_replicas node replicas =
  let known = Hashtbl.create 16 in
  let note (p : Peer.t) =
    if Array.exists (fun a -> a = p.Peer.addr) replicas then Hashtbl.replace known p.Peer.addr ()
  in
  List.iter note (Leaf_set.members (Node.leaf_set node));
  List.iter note (Routing_table.peers (Node.routing_table node));
  List.iter note (Neighborhood.members (Node.neighborhood node));
  if Array.exists (fun a -> a = Node.addr node) replicas then
    Hashtbl.replace known (Node.addr node) ();
  Hashtbl.fold (fun a () acc -> a :: acc) known []

(* One trial: an isolated overlay (own seed drawn from the stream
   [Rng.derive] gives the trial index, own RNG stream, own net)
   measuring [lookups] redirect ranks. The trial is a pure function of
   (params.seed, trial index), so trials fan out over the domain pool
   and merge in submission order — byte-identical output at any
   --jobs. *)
let run_trial ~(setup : Setup.t) params ~trial ~lookups =
  let seed = Int64.to_int (Rng.bits64 (Rng.derive (Rng.create params.seed) ~salt:trial)) in
  let overlay : Harness.probe Overlay.t = Setup.overlay setup ~seed () in
  Overlay.build_static ~rt_samples:64 overlay ~n:params.n;
  let net = Overlay.net overlay in
  let rng = Overlay.rng overlay in
  let rank_counts = Array.make params.k 0 in
  let done_count = ref 0 in
  let current_replicas = ref [||] in
  let current_src = ref (-1) in
  (* The serving replica's rank among the k, ordered by proximity to
     the client. *)
  let record served =
    if !current_src >= 0 then begin
      let by_prox =
        Array.map (fun a -> (Net.proximity net !current_src a, a)) !current_replicas
      in
      Array.sort compare by_prox;
      Array.iteri
        (fun rank (_, a) -> if a = served then rank_counts.(rank) <- rank_counts.(rank) + 1)
        by_prox;
      incr done_count;
      current_src := -1
    end
  in
  (* At each hop: if the current node knows any replica holder, the
     lookup is redirected to the proximally nearest one it knows. *)
  let redirect node =
    match known_replicas node !current_replicas with
    | [] -> `Continue
    | candidates ->
      let here = Node.addr node in
      let best =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b ->
              if a = here then Some a
              else if b = here then best
              else if Net.proximity net here a < Net.proximity net here b then Some a
              else best)
          None candidates
      in
      (match best with Some a -> record a | None -> ());
      `Stop
  in
  Overlay.install_apps overlay (fun node ->
      {
        Harness.null_app with
        Node.deliver = (fun ~key:_ _ _ -> record (Node.addr node));
        forward = (fun ~key:_ _ _ -> redirect node);
      });
  for _ = 1 to lookups do
    let key = Id.random rng ~width:Id.node_bits in
    let replicas = Overlay.sorted_neighbours overlay key ~k:params.k in
    current_replicas := Array.of_list (List.map Node.addr replicas);
    let src = Overlay.random_live_node overlay in
    current_src := Node.addr src;
    (* The access node itself checks first (hop 0). *)
    (match redirect src with
    | `Stop -> ()
    | `Continue -> Node.route src ~key ());
    Overlay.run overlay
  done;
  (!done_count, rank_counts)

let run ?(setup = Setup.sequential ()) params =
  let trials = Stdlib.max 1 params.trials in
  (* Spread the lookup budget over the trials (earlier trials take the
     remainder), then sum the per-trial rank histograms. *)
  let share t = (params.lookups / trials) + (if t < params.lookups mod trials then 1 else 0) in
  let per_trial =
    Domain_pool.map setup.pool
      (fun trial -> run_trial ~setup params ~trial ~lookups:(share trial))
      (List.init trials Fun.id)
  in
  let rank_counts = Array.make params.k 0 in
  let done_count =
    List.fold_left
      (fun acc (n, counts) ->
        Array.iteri (fun i c -> rank_counts.(i) <- rank_counts.(i) + c) counts;
        acc + n)
      0 per_trial
  in
  {
    lookups_done = done_count;
    hit_nearest = rank_counts.(0);
    hit_two_nearest = rank_counts.(0) + (if params.k > 1 then rank_counts.(1) else 0);
    rank_counts;
    params;
  }

let table r =
  let t = Text_table.create [ "replica rank (by client proximity)"; "fraction of lookups" ] in
  let total = float_of_int (Stdlib.max 1 r.lookups_done) in
  Array.iteri
    (fun rank c ->
      Text_table.add_rowf t "%d-nearest|%.1f%%" (rank + 1) (100.0 *. float_of_int c /. total))
    r.rank_counts;
  Text_table.add_rowf t "nearest (paper: 76%%)|%.1f%%"
    (100.0 *. float_of_int r.hit_nearest /. total);
  Text_table.add_rowf t "one of two nearest (paper: 92%%)|%.1f%%"
    (100.0 *. float_of_int r.hit_two_nearest /. total);
  t
