module Signer = Past_crypto.Signer
module Id = Past_id.Id
module Net = Past_simnet.Net
module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Rng = Past_stdext.Rng
module Monitor = Past_telemetry.Monitor
module Registry = Past_telemetry.Registry

type t = {
  overlay : Wire.t Overlay.t;
  brokers : Broker.t array;
  mutable nodes : Node.t array;  (* node i is pastry address i *)
  rng : Rng.t;
  node_config : Node.config;
}

let overlay t = t.overlay
let brokers t = t.brokers
let broker t = t.brokers.(0)
let nodes t = t.nodes
let node_count t = Array.length t.nodes
let rng t = t.rng
let net t = Overlay.net t.overlay
let registry t = Overlay.registry t.overlay
let run ?until t = Overlay.run ?until t.overlay

let node_at t addr = if addr >= 0 && addr < Array.length t.nodes then Some t.nodes.(addr) else None

let node_of_pastry_addr t addr =
  match node_at t addr with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "System.node_of_pastry_addr: unknown address %d" addr)

(* PAST-level invariant monitors (see DESIGN.md, Observability): no-ops
   unless monitoring is active for this system's registry.

   - [past.replica_count]: no file may drop below the best replica
     count it ever achieved, capped by [min k live]. The cap-by-best
     excuses partial replica sets stranded by aborted inserts near
     capacity (never at full strength, never repaired), while replica
     loss after a node failure still trips — even for a partial set.
     Deficits are expected transiently during repair, so each file
     gets its own deficit clock and only a deficit outlasting the
     repair bound is an error.

     Storage-heavy runs hold ~10^5 certificates and (thanks to client
     backoff near capacity) span ~10^8 sim-ms, so a per-evaluation
     census is unaffordable. Counts are instead maintained
     incrementally: store mutations stream through {!Store.set_observer}
     (O(1) per replica added/removed), and node deaths/revivals —
     which can happen below the System API, directly on the simnet —
     are caught at evaluation time by diffing a liveness snapshot and
     crediting/debiting the flipped node's holdings. An evaluation
     then touches only the nodes array and the (normally tiny)
     at-risk set.

   - [past.quota_conservation]: per node, [Store.used] equals the sum
     of the stored certificates' declared sizes and never exceeds the
     contributed capacity. Checked over a rotating batch of nodes. *)

type replica_stat = {
  mutable rs_n : int;  (* replicas currently on live nodes *)
  rs_k : int;  (* requested replication factor *)
  mutable rs_best : int;  (* high-water mark of rs_n *)
}

let install_monitors t =
  let monitors = Registry.monitors (Overlay.registry t.overlay) in
  if Monitor.active monitors then begin
    let net = Overlay.net t.overlay in
    let cfg = Overlay.config t.overlay in
    let node_alive node = Net.alive net (PNode.addr (Node.pastry node)) in
    (* Recovery bound: failure detection (keepalive + timeout), the
       re-replication debounce, then the offer/want/data round trips. The
       bound is a deliberately loose multiple — the monitor is a lost-
       file tripwire, not a repair-latency benchmark. *)
    let replica_bound =
      10.0
      *. (cfg.Past_pastry.Config.keepalive_period +. cfg.Past_pastry.Config.failure_timeout)
      +. t.node_config.Node.replication_delay
    in
    let stats : replica_stat Id.Table.t = Id.Table.create 1024 in
    let at_risk : unit Id.Table.t = Id.Table.create 64 in
    let deficits : float Id.Table.t = Id.Table.create 64 in
    (* What the monitor currently believes about each node's liveness.
       Observer deltas only apply while the node's holdings are
       credited (believed live); flips are reconciled at evaluation
       time, so a death plus revival between two evaluations nets out
       without double counting. *)
    let believed_alive = Array.map node_alive t.nodes in
    (* [deliberate] distinguishes an explicit removal — reclaim (best-
       effort by design: §2.1 only promises the quota back, surviving
       copies are allowed) or managed displacement, both policy
       choices that lower the bar for the file — from a liveness debit
       (every replica on a dead node is potential data loss; the bar
       stays, and the file becomes at risk). The at-risk test uses
       the liveness-free bound [min best k]; the true requirement
       (capped by the live-node count) is applied at evaluation time,
       so the at-risk set is a conservative superset. *)
    let update file_id k delta ~deliberate =
      let s =
        match Id.Table.find_opt stats file_id with
        | Some s -> s
        | None ->
          let s = { rs_n = 0; rs_k = k; rs_best = 0 } in
          Id.Table.replace stats file_id s;
          s
      in
      s.rs_n <- s.rs_n + delta;
      if s.rs_n > s.rs_best then s.rs_best <- s.rs_n;
      if deliberate && delta < 0 && s.rs_best > s.rs_n then s.rs_best <- Stdlib.max s.rs_n 0;
      if s.rs_n <= 0 && deliberate then begin
        Id.Table.remove stats file_id;
        Id.Table.remove at_risk file_id;
        Id.Table.remove deficits file_id
      end
      else if s.rs_n < Stdlib.min s.rs_best s.rs_k then Id.Table.replace at_risk file_id ()
      else Id.Table.remove at_risk file_id
    in
    let credit_store node delta ~deliberate =
      Store.iter (Node.store node) (fun e ->
          update e.Store.cert.Certificate.file_id e.Store.cert.Certificate.replication delta
            ~deliberate)
    in
    Array.iteri
      (fun i node ->
        if believed_alive.(i) then credit_store node 1 ~deliberate:true;
        Store.set_observer (Node.store node) (fun ev ->
            if believed_alive.(i) then
              match ev with
              | Store.Added c ->
                update c.Certificate.file_id c.Certificate.replication 1 ~deliberate:true
              | Store.Removed c ->
                update c.Certificate.file_id c.Certificate.replication (-1) ~deliberate:true))
      t.nodes;
    Monitor.register monitors ~name:"past.replica_count" ~interval:(replica_bound /. 4.)
      (fun ~now ->
        let live = ref 0 in
        Array.iteri
          (fun i node ->
            let alive = node_alive node in
            if alive then incr live;
            if alive <> believed_alive.(i) then begin
              believed_alive.(i) <- alive;
              if alive then credit_store node 1 ~deliberate:true
              else credit_store node (-1) ~deliberate:false
            end)
          t.nodes;
        (* Retire clocks of files that recovered (or were reclaimed —
           those left the at-risk set in [update]). *)
        let resolved =
          Id.Table.fold
            (fun id _ acc -> if Id.Table.mem at_risk id then acc else id :: acc)
            deficits []
        in
        List.iter (Id.Table.remove deficits) resolved;
        let worst = ref None in
        Id.Table.iter
          (fun id () ->
            match Id.Table.find_opt stats id with
            | None -> ()
            | Some s ->
              let req = Stdlib.min s.rs_best (Stdlib.min s.rs_k !live) in
              if s.rs_n < req then begin
                let since =
                  match Id.Table.find_opt deficits id with
                  | Some since -> since
                  | None ->
                    Id.Table.replace deficits id now;
                    now
                in
                let age = now -. since in
                if age > replica_bound then
                  match !worst with
                  | Some (_, _, _, worst_age) when worst_age >= age -> ()
                  | _ -> worst := Some (id, s.rs_n, req, age)
              end
              else Id.Table.remove deficits id)
          at_risk;
        match !worst with
        | None -> Ok ()
        | Some (id, n, req, age) ->
          Error
            (Printf.sprintf "file %s has %d/%d live replicas for %.0f sim-ms" (Id.short id) n
               req age));
    let cursor = ref 0 in
    (* Accounting drift is permanent once introduced, so a slow sweep
       (one batch per failure-detection cycle) loses nothing. *)
    let quota_interval =
      4.0 *. (cfg.Past_pastry.Config.keepalive_period +. cfg.Past_pastry.Config.failure_timeout)
    in
    Monitor.register monitors ~name:"past.quota_conservation" ~interval:quota_interval
      (fun ~now:_ ->
        let n = Array.length t.nodes in
        if n = 0 then Ok ()
        else begin
          let res = ref (Ok ()) in
          for _ = 1 to min n 8 do
            let node = t.nodes.(!cursor mod n) in
            incr cursor;
            let store = Node.store node in
            let sum = ref 0 in
            Store.iter_sizes store (fun size -> sum := !sum + size);
            let used = Store.used store in
            (* [used > capacity] and [free < 0] are the capacity-
               accounting holes this monitor exists to catch: the
               delta-admission rule in [Store.put] must make them
               unreachable for any put/replace/remove/reclaim
               interleaving. *)
            if
              used <> !sum || used > Store.capacity store || Store.free store < 0
              || Store.utilization store > 1.0
            then
              res :=
                Error
                  (Printf.sprintf "node %s: used=%d but sum(entries)=%d, capacity=%d, free=%d"
                     (Id.short (Node.id node)) used !sum (Store.capacity store)
                     (Store.free store))
          done;
          !res
        end)
  end

let create ?pastry_config ?(node_config = Node.default_config) ?topology
    ?(crypto_mode = `Insecure) ?build ?loss_rate ?(broker_count = 1) ?trace_capacity
    ?store_backend ?monitors ~seed ~n ~node_capacity () =
  if n < 1 then invalid_arg "System.create: need at least one node";
  if broker_count < 1 then invalid_arg "System.create: need at least one broker";
  let rng = Rng.create seed in
  let overlay =
    Overlay.create ?config:pastry_config ?topology ?loss_rate ?trace_capacity ?monitors
      ~seed:(seed + 1) ()
  in
  let brokers = Array.init broker_count (fun _ -> Broker.create ~mode:crypto_mode (Rng.split rng)) in
  let build = match build with Some b -> b | None -> if n <= 500 then `Dynamic else `Static in
  let t = { overlay; brokers; nodes = [||]; rng; node_config } in
  let trusted = Array.to_list (Array.map Broker.public brokers) in
  (* The free-space oracle: the load-balancing shortcut for querying a
     remote node's free space (see Node.free_oracle). *)
  let free_oracle addr = Option.map (fun node -> Store.free (Node.store node)) (node_at t addr) in
  let make_node i =
    let capacity = node_capacity i rng in
    (* Cards are issued round-robin across the competing brokers. *)
    let card =
      match Broker.issue_card brokers.(i mod broker_count) ~quota:0 ~contributed:capacity with
      | Ok card -> card
      | Error `Supply_exhausted -> assert false (* broker created without enforcement *)
    in
    let pastry = Overlay.add_node_with_id overlay ~id:(Smartcard.node_id card) in
    Node.attach ~pastry ~card ~brokers:trusted ~capacity ~config:node_config
      ?backend:store_backend ~free_oracle ()
  in
  t.nodes <- Array.init n make_node;
  (match build with
  | `Static -> Overlay.build_static overlay ~n:0
  | `Dynamic -> Overlay.build_dynamic overlay ~n:0);
  Overlay.run overlay;
  install_monitors t;
  t

let new_client t ?access ?op_timeout ?max_insert_attempts ?verify ?(broker_index = 0) ~quota ()
    =
  let access =
    match access with
    | Some node -> node
    | None -> node_of_pastry_addr t (PNode.addr (Overlay.random_live_node t.overlay))
  in
  let card =
    match Broker.issue_card t.brokers.(broker_index) ~quota ~contributed:0 with
    | Ok card -> card
    | Error `Supply_exhausted -> invalid_arg "System.new_client: broker supply exhausted"
  in
  Client.create ~card ~access ?op_timeout ?max_insert_attempts ?verify ~rng:(Rng.split t.rng) ()

let total_capacity t =
  Array.fold_left (fun acc node -> acc + Store.capacity (Node.store node)) 0 t.nodes

let total_used t = Array.fold_left (fun acc node -> acc + Store.used (Node.store node)) 0 t.nodes

let global_utilization t =
  let cap = total_capacity t in
  if cap = 0 then 0.0 else float_of_int (total_used t) /. float_of_int cap

let kill_node t node = Overlay.kill t.overlay (Node.pastry node)
let revive_node t node =
  Overlay.revive t.overlay (Node.pastry node);
  Node.notify_revived node
let start_maintenance t = Overlay.start_maintenance t.overlay
let stop_maintenance t = Overlay.stop_maintenance t.overlay
let shutdown t =
  (* The disk-backed store holds open segment file handles (and
     possibly a scratch directory) per node. *)
  Array.iter (fun node -> Store.close (Node.store node)) t.nodes
