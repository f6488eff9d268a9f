(* EXP13 — the smartcard quota economy (paper claim C10).

   "the smartcards maintain storage quotas ... When a file certificate
   is issued, an amount corresponding to the file size times the
   replication factor is debited against the quota. When the client
   presents an appropriate reclaim receipt ..., the amount reclaimed is
   credited" — §2.1; and §2.1 "System integrity": "there must be a
   balance between the sum of all client quotas (potential demand) and
   the total available storage in the system (supply). The broker
   ensures that balance."

   A mixed insert/reclaim workload; we report quota accounting and the
   broker's supply/demand ledger, and check conservation. *)

module System = Past_core.System
module Client = Past_core.Client
module Broker = Past_core.Broker
module Smartcard = Past_core.Smartcard
module Node = Past_core.Node
module Store = Past_core.Store
module Rng = Past_stdext.Rng
module Text_table = Past_stdext.Text_table
module Id = Past_id.Id

type params = {
  n : int;
  users : int;
  quota_per_user : int;
  file_size : int;
  k : int;
  inserts_per_user : int;
  reclaim_fraction : float;
  seed : int;
}

let default_params =
  {
    n = 60;
    users = 10;
    quota_per_user = 400_000;
    file_size = 8_000;
    k = 3;
    inserts_per_user = 12;
    reclaim_fraction = 0.5;
    seed = 43;
  }

type result = {
  total_quota : int;
  total_supply : int;
  quota_used_after_inserts : int;
  quota_used_after_reclaims : int;
  bytes_in_stores : int;
  live_files : int;
  inserts_ok : int;
  inserts_denied_by_quota : int;
  conservation_holds : bool;
      (** quota used (sum over cards) = bytes in stores for live files *)
}

let run params =
  let node_config = { Node.default_config with Node.cache_policy = Past_core.Cache.No_cache } in
  let sys =
    System.create ~node_config ~build:`Static ~seed:params.seed ~n:params.n
      ~node_capacity:(fun _ _ -> 4_000_000)
      ()
  in
  let rng = Rng.create (params.seed + 5) in
  let clients =
    Array.init params.users (fun _ -> System.new_client sys ~quota:params.quota_per_user ())
  in
  let inserted : (Client.t * Id.t) list ref = ref [] in
  let ok = ref 0 and denied = ref 0 in
  Array.iteri
    (fun u client ->
      for i = 1 to params.inserts_per_user do
        match
          Client.insert_sync client
            ~name:(Printf.sprintf "u%d-f%d" u i)
            ~data:(String.make params.file_size 'd')
            ~k:params.k ()
        with
        | Client.Inserted { file_id; _ } ->
          incr ok;
          inserted := (client, file_id) :: !inserted
        | Client.Insert_failed { reason; _ } ->
          if reason = "quota exceeded" then incr denied
      done)
    clients;
  let quota_used_after_inserts =
    Array.fold_left (fun acc c -> acc + Smartcard.used (Client.card c)) 0 clients
  in
  (* Reclaim a fraction of the files. *)
  List.iter
    (fun (client, file_id) ->
      if Rng.chance rng params.reclaim_fraction then
        ignore (Client.reclaim_sync client ~file_id ~expected:params.k ()))
    !inserted;
  System.run sys;
  let quota_used_after_reclaims =
    Array.fold_left (fun acc c -> acc + Smartcard.used (Client.card c)) 0 clients
  in
  let bytes_in_stores = System.total_used sys in
  let live_files =
    Array.fold_left (fun acc n -> acc + Store.file_count (Node.store n)) 0 (System.nodes sys)
  in
  let report = Broker.report (System.broker sys) in
  System.shutdown sys;
  {
    total_quota = report.Broker.total_quota;
    total_supply = report.Broker.total_contributed;
    quota_used_after_inserts;
    quota_used_after_reclaims;
    bytes_in_stores;
    live_files;
    inserts_ok = !ok;
    inserts_denied_by_quota = !denied;
    conservation_holds = quota_used_after_reclaims = bytes_in_stores;
  }

let table r =
  let t = Text_table.create [ "metric"; "value" ] in
  Text_table.add_rowf t "broker: total quota issued (demand)|%d" r.total_quota;
  Text_table.add_rowf t "broker: total storage contributed (supply)|%d" r.total_supply;
  Text_table.add_rowf t "inserts accepted|%d" r.inserts_ok;
  Text_table.add_rowf t "inserts denied by quota|%d" r.inserts_denied_by_quota;
  Text_table.add_rowf t "quota debited after inserts|%d" r.quota_used_after_inserts;
  Text_table.add_rowf t "quota debited after reclaims|%d" r.quota_used_after_reclaims;
  Text_table.add_rowf t "bytes held in stores|%d" r.bytes_in_stores;
  Text_table.add_rowf t "replicas held|%d" r.live_files;
  Text_table.add_rowf t "conservation (quota used = stored bytes)|%b" r.conservation_holds;
  t
