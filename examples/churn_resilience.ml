(* Churn: nodes "may join the system at any time and may silently
   leave the system without warning" (§1), yet stored files stay
   available. We alternate joins and silent departures while clients
   keep inserting and fetching, with keep-alive failure detection and
   re-replication running throughout (§2.2 "Node addition and
   failure").

   Run with: dune exec examples/churn_resilience.exe *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Overlay = Past_pastry.Overlay
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng

let () =
  print_endline "== PAST under churn ==";
  let sys =
    System.create ~build:`Dynamic ~seed:31 ~n:60 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 2_000_000)
      ()
  in
  let rng = Rng.create 17 in
  let client = System.new_client sys ~quota:10_000_000 () in
  let k = 4 in
  let stored = ref [] in
  System.start_maintenance sys;

  let cfg = Past_pastry.Config.default in
  let settle_window =
    (2.0 *. cfg.Past_pastry.Config.failure_timeout) +. (2.0 *. cfg.Past_pastry.Config.keepalive_period)
  in

  let live_count () = List.length (Overlay.live_nodes (System.overlay sys)) in

  for round = 1 to 6 do
    (* A couple of inserts... *)
    for i = 1 to 3 do
      let name = Printf.sprintf "r%d-f%d" round i in
      let data = String.init 4_000 (fun j -> Char.chr (((round * i) + j) mod 256)) in
      match Client.insert_sync client ~name ~data ~k () with
      | Client.Inserted { file_id; _ } -> stored := (file_id, data) :: !stored
      | Client.Insert_failed { reason; _ } ->
        Printf.printf "  round %d: insert %s failed (%s)\n" round name reason
    done;
    (* ...then churn: two nodes die silently, one (sometimes) rejoins. *)
    for _ = 1 to 2 do
      let nodes = System.nodes sys in
      let v = nodes.(Rng.int rng (Array.length nodes)) in
      if Net.alive (System.net sys) (Node.addr v) && live_count () > 20 then
        System.kill_node sys v
    done;
    if round mod 2 = 0 then begin
      let dead =
        Array.to_list (System.nodes sys)
        |> List.filter (fun n -> not (Net.alive (System.net sys) (Node.addr n)))
      in
      match dead with
      | v :: _ -> System.revive_node sys v
      | [] -> ()
    end;
    (* Let failure detection, repair and re-replication settle. *)
    System.run ~until:(Net.now (System.net sys) +. settle_window) sys;
    Printf.printf "round %d: %d/%d nodes alive, %d files stored so far\n" round (live_count ())
      (System.node_count sys) (List.length !stored)
  done;

  System.stop_maintenance sys;
  System.run ~until:(Net.now (System.net sys) +. settle_window) sys;

  (* Final audit: every file must still be retrievable and intact. *)
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun (file_id, data) ->
      match Client.lookup_sync client ~file_id () with
      | Client.Found { data = d; _ } when String.equal d data -> incr ok
      | Client.Found _ | Client.Lookup_failed -> incr bad)
    !stored;
  Printf.printf "\nfinal audit: %d/%d files intact after churn (%d lost)\n" !ok
    (List.length !stored) !bad;

  (* Replication health: how many copies of each file survive. *)
  let counts =
    List.map
      (fun (file_id, _) ->
        Array.fold_left
          (fun acc node ->
            if
              Net.alive (System.net sys) (Node.addr node)
              && Store.mem (Node.store node) file_id
            then acc + 1
            else acc)
          0 (System.nodes sys))
      !stored
  in
  let under = List.length (List.filter (fun c -> c < k) counts) in
  Printf.printf "replication: %d/%d files hold the full k=%d live copies (%d below target)\n"
    (List.length counts - under) (List.length counts) k under
