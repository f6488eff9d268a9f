(* Archival backup: the paper's motivating workload (§1 — "obviates
   the need for physical transport of storage media to protect backup
   and archival data").

   Several users back up file sets under quota, a slice of the network
   fails silently, and every archive remains retrievable; old backups
   are reclaimed to recover quota. The broker's supply/demand ledger is
   printed at the end (§2.1 "System integrity").

   Run with: dune exec examples/archival_backup.exe *)

module System = Past_core.System
module Client = Past_core.Client
module Broker = Past_core.Broker
module Smartcard = Past_core.Smartcard
module Node = Past_core.Node
module Rng = Past_stdext.Rng

let () =
  print_endline "== PAST as a backup utility ==";
  let sys =
    System.create ~seed:7 ~n:80 ~crypto_mode:(`Rsa 256)
      ~node_capacity:(fun _ _ -> 5_000_000)
      ()
  in
  let rng = Rng.create 99 in
  let k = 4 in

  (* Three users, each with a 500 kB quota, back up 10 files. *)
  let users =
    List.map
      (fun name -> (name, System.new_client sys ~quota:500_000 ()))
      [ "ana"; "ben"; "cyd" ]
  in
  let archives =
    List.map
      (fun (name, client) ->
        let files =
          List.init 10 (fun i ->
              let payload =
                String.init (2_000 + Rng.int rng 8_000) (fun j -> Char.chr (((i * j) mod 251) + 1))
              in
              match
                Client.insert_sync client ~name:(Printf.sprintf "%s/backup-%02d" name i)
                  ~data:payload ~k ()
              with
              | Client.Inserted { file_id; _ } -> (file_id, payload)
              | Client.Insert_failed { reason; _ } -> failwith ("backup failed: " ^ reason))
        in
        Printf.printf "%s backed up %d files (quota used %d / %d)\n" name (List.length files)
          (Smartcard.used (Client.card client))
          (Smartcard.quota (Client.card client));
        (name, client, files))
      users
  in

  (* Disaster: 15 of the 80 nodes disappear without warning. *)
  let victims = ref [] in
  for _ = 1 to 15 do
    let nodes = System.nodes sys in
    let v = nodes.(Rng.int rng (Array.length nodes)) in
    if Past_simnet.Net.alive (System.net sys) (Node.addr v) then begin
      System.kill_node sys v;
      victims := v :: !victims
    end
  done;
  Printf.printf "\n%d storage nodes failed silently...\n" (List.length !victims);

  (* Every archive is still retrievable thanks to k=4 replication. *)
  let total = ref 0 and recovered = ref 0 in
  List.iter
    (fun (name, _, files) ->
      let ok =
        List.fold_left
          (fun acc (file_id, payload) ->
            incr total;
            match Client.lookup_sync (List.assoc name (List.map (fun (n, c) -> (n, c)) users)) ~file_id () with
            | Client.Found { data; _ } when String.equal data payload -> acc + 1
            | Client.Found _ | Client.Lookup_failed -> acc)
          0 files
      in
      recovered := !recovered + ok;
      Printf.printf "%s recovered %d/%d files intact\n" name ok (List.length files))
    archives;
  Printf.printf "overall: %d/%d archives survive the failures\n" !recovered !total;

  (* Reclaim ana's backups: storage freed, quota credited. *)
  (match archives with
  | (name, client, files) :: _ ->
    List.iter
      (fun (file_id, _) -> ignore (Client.reclaim_sync client ~file_id ~expected:k ()))
      files;
    Printf.printf
      "\n%s reclaimed all backups; quota used dropped to %d\n\
       (copies that sat on failed nodes cannot issue reclaim receipts, so their\n\
       quota stays debited until re-replication heals them - the receipts rule of\n\
       paper section 2.1 at work)\n"
      name
      (Smartcard.used (Client.card client))
  | [] -> ());

  (* The broker's ledger: supply vs potential demand. *)
  let report = Broker.report (System.broker sys) in
  Printf.printf "\nbroker ledger: %d cards, %d bytes quota issued, %d bytes storage contributed\n"
    report.Broker.cards_issued report.Broker.total_quota report.Broker.total_contributed;
  Printf.printf "global storage utilization: %.1f%%\n" (100.0 *. System.global_utilization sys)
