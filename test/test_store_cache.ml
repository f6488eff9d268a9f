(* Store (storage management, §2.3) and Cache (GD-S / LRU). *)

module Store = Past_core.Store
module Cache = Past_core.Cache
module Cert = Past_core.Certificate
module Smartcard = Past_core.Smartcard
module Broker = Past_core.Broker
module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Peer = Past_pastry.Peer

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let broker = lazy (Broker.create ~mode:`Insecure (Rng.create 60))

let card =
  lazy
    (match Broker.issue_card (Lazy.force broker) ~quota:max_int ~contributed:0 with
    | Ok c -> c
    | Error _ -> assert false)

let counter = ref 0

let cert_of_size size =
  incr counter;
  match
    Smartcard.issue_file_certificate (Lazy.force card)
      ~name:(Printf.sprintf "f%d" !counter)
      ~data:"" ~declared_size:size ~replication:1 ~now:0.0 ()
  with
  | Ok c -> c
  | Error _ -> assert false

(* Same-id certificates of controlled sizes (fixed salt, so the fileId
   depends only on the name): replacement/delta-admission tests need to
   re-insert one fileId at a different size, which [cert_of_size]'s
   fresh names cannot do. *)
let replace_keypair = lazy (Past_crypto.Signer.generate (Rng.create 61) ~mode:`Insecure)

let cert_named name size =
  let keypair = Lazy.force replace_keypair in
  Cert.make_file ~keypair
    ~owner:(Past_crypto.Signer.public keypair)
    ~owner_endorsement:Bytes.empty ~name ~data:"" ~declared_size:size ~replication:1 ~salt:"s"
    ~now:0.0 ()

(* --- Store --- *)

let store_accounting () =
  let s = Store.create ~capacity:1000 () in
  check Alcotest.int "capacity" 1000 (Store.capacity s);
  check Alcotest.int "free" 1000 (Store.free s);
  let c = cert_of_size 50 in
  (match Store.put s ~cert:c ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "should admit");
  check Alcotest.int "used" 50 (Store.used s);
  check Alcotest.int "files" 1 (Store.file_count s);
  check (Alcotest.float 1e-9) "utilization" 0.05 (Store.utilization s);
  (match Store.remove s c.Cert.file_id with
  | Some e -> check Alcotest.int "removed size" 50 e.Store.cert.Cert.size
  | None -> Alcotest.fail "entry missing");
  check Alcotest.int "freed" 0 (Store.used s);
  check Alcotest.bool "second remove none" true (Store.remove s c.Cert.file_id = None)

let store_get_mem () =
  let s = Store.create ~capacity:1000 () in
  let c = cert_of_size 10 in
  ignore (Store.put s ~cert:c ~data:"body" ~kind:Store.Primary);
  check Alcotest.bool "mem" true (Store.mem s c.Cert.file_id);
  (match Store.get s c.Cert.file_id with
  | Some e -> check Alcotest.string "data" "body" e.Store.data
  | None -> Alcotest.fail "missing");
  check Alcotest.bool "absent" false (Store.mem s (Id.random (Rng.create 1) ~width:160))

let store_overwrite_same_id () =
  let s = Store.create ~capacity:1000 () in
  let c = cert_of_size 100 in
  ignore (Store.put s ~cert:c ~data:"" ~kind:Store.Primary);
  ignore (Store.put s ~cert:c ~data:"" ~kind:Store.Primary);
  check Alcotest.int "no double counting" 100 (Store.used s);
  check Alcotest.int "one file" 1 (Store.file_count s)

let store_threshold_rule () =
  (* t_pri = 0.1: a file is admitted iff size <= 0.1 * free. *)
  let s = Store.create ~capacity:1000 ~t_pri:0.1 ~t_div:0.05 () in
  check Alcotest.bool "small primary ok" true (Store.admits s ~size:100 ~kind:`Primary);
  check Alcotest.bool "large primary refused" false (Store.admits s ~size:101 ~kind:`Primary);
  check Alcotest.bool "diverted stricter" false (Store.admits s ~size:51 ~kind:`Diverted);
  check Alcotest.bool "diverted ok" true (Store.admits s ~size:50 ~kind:`Diverted);
  (* The rule tightens as the store fills. *)
  ignore (Store.put s ~cert:(cert_of_size 100) ~data:"" ~kind:Store.Primary);
  check Alcotest.bool "tightened" false (Store.admits s ~size:100 ~kind:`Primary);
  check Alcotest.bool "smaller still ok" true (Store.admits s ~size:90 ~kind:`Primary)

let store_put_respects_threshold () =
  let s = Store.create ~capacity:1000 ~t_pri:0.1 () in
  match Store.put s ~cert:(cert_of_size 500) ~data:"" ~kind:Store.Primary with
  | Ok () -> Alcotest.fail "must refuse"
  | Error `Refused -> check Alcotest.int "nothing stored" 0 (Store.used s)

let store_force_put_ignores_threshold () =
  let s = Store.create ~capacity:1000 ~t_pri:0.1 () in
  (match Store.force_put s ~cert:(cert_of_size 900) ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "fits capacity");
  match Store.force_put s ~cert:(cert_of_size 200) ~data:"" ~kind:Store.Primary with
  | Ok () -> Alcotest.fail "exceeds capacity"
  | Error `Refused -> ()

let store_diverted_kind () =
  let s = Store.create ~capacity:1000 () in
  let owner = Id.random (Rng.create 2) ~width:128 in
  let c = cert_of_size 10 in
  ignore (Store.put s ~cert:c ~data:"" ~kind:(Store.Diverted { on_behalf = owner }));
  match Store.get s c.Cert.file_id with
  | Some { Store.kind = Store.Diverted { on_behalf }; _ } ->
    check Alcotest.bool "owner recorded" true (Id.equal on_behalf owner)
  | _ -> Alcotest.fail "kind lost"

let store_pointers () =
  let s = Store.create ~capacity:1000 () in
  let fid = Id.random (Rng.create 3) ~width:160 in
  let holder = Peer.make ~id:(Id.random (Rng.create 4) ~width:128) ~addr:7 in
  check Alcotest.bool "no pointer" true (Store.pointer s fid = None);
  Store.add_pointer s ~file_id:fid ~holder;
  (match Store.pointer s fid with
  | Some p -> check Alcotest.int "holder" 7 p.Peer.addr
  | None -> Alcotest.fail "pointer missing");
  check Alcotest.int "count" 1 (Store.pointer_count s);
  Store.remove_pointer s fid;
  check Alcotest.bool "removed" true (Store.pointer s fid = None)

let store_replace_delta_admission () =
  (* Replacing a stored fileId is admitted against the size delta only
     (no threshold), but capacity stays a hard bound. The historical
     bug: any same-id put was admitted unconditionally, so a replace
     sequence could push used past capacity. *)
  let s = Store.create ~capacity:1000 ~t_pri:0.1 () in
  (match Store.put s ~cert:(cert_named "a" 100) ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "fresh insert within threshold");
  (* grow: delta 800 <= free 900, despite 900 >> t_pri * free *)
  (match Store.put s ~cert:(cert_named "a" 900) ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "delta fits");
  check Alcotest.int "used tracks replacement" 900 (Store.used s);
  (* grow to exactly full *)
  (match Store.put s ~cert:(cert_named "a" 1000) ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "fills exactly");
  check Alcotest.int "full" 1000 (Store.used s);
  (* any further growth must refuse — this is the regression *)
  (match Store.put s ~cert:(cert_named "a" 1001) ~data:"" ~kind:Store.Primary with
  | Ok () -> Alcotest.fail "breached capacity via replacement"
  | Error `Refused -> ());
  (match Store.force_put s ~cert:(cert_named "a" 1001) ~data:"" ~kind:Store.Primary with
  | Ok () -> Alcotest.fail "force_put breached capacity via replacement"
  | Error `Refused -> ());
  check Alcotest.int "used unchanged after refusals" 1000 (Store.used s);
  check Alcotest.int "file count" 1 (Store.file_count s);
  (* shrink always fits *)
  (match Store.put s ~cert:(cert_named "a" 10) ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "shrinking replacement fits");
  check Alcotest.int "shrunk" 10 (Store.used s);
  check Alcotest.int "free saturated sanely" 990 (Store.free s)

let qcheck_store_replace_sequences =
  (* Adversarial interleavings of insert/replace/remove over a handful
     of fileIds: used <= capacity and free >= 0 must hold at every
     step, and used must equal the sum of stored sizes. *)
  QCheck.Test.make ~name:"store accounting under adversarial replaces" ~count:200
    QCheck.(list (pair (int_range 0 5) (int_range (-50) 400)))
    (fun ops ->
      let s = Store.create ~capacity:1000 () in
      List.for_all
        (fun (slot, size) ->
          let name = Printf.sprintf "slot%d" slot in
          (if size <= 0 then ignore (Store.remove s (cert_named name 1).Cert.file_id)
           else
             let cert = cert_named name size in
             if slot mod 2 = 0 then ignore (Store.put s ~cert ~data:"" ~kind:Store.Primary)
             else ignore (Store.force_put s ~cert ~data:"" ~kind:Store.Primary));
          let sum = ref 0 in
          Store.iter_sizes s (fun sz -> sum := !sum + sz);
          Store.used s <= Store.capacity s && Store.free s >= 0 && Store.used s = !sum)
        ops)

let qcheck_store_never_overflows =
  QCheck.Test.make ~name:"store never exceeds capacity" ~count:100
    QCheck.(pair small_int (list (int_range 1 300)))
    (fun (_, sizes) ->
      let s = Store.create ~capacity:1000 () in
      List.iter
        (fun size -> ignore (Store.force_put s ~cert:(cert_of_size size) ~data:"" ~kind:Store.Primary))
        sizes;
      Store.used s <= Store.capacity s && Store.free s >= 0)

(* --- Cache --- *)

let cache_no_cache_policy () =
  let c = Cache.create Cache.No_cache in
  Cache.set_budget c 10_000;
  check Alcotest.bool "offer rejected" false (Cache.offer c ~cert:(cert_of_size 10) ~data:"");
  check Alcotest.int "empty" 0 (Cache.entry_count c)

let cache_stores_and_hits () =
  let c = Cache.create Cache.Gds in
  Cache.set_budget c 10_000;
  let cert = cert_of_size 100 in
  check Alcotest.bool "offer accepted" true (Cache.offer c ~cert ~data:"payload");
  (match Cache.find c cert.Cert.file_id with
  | Some (_, data) -> check Alcotest.string "data" "payload" data
  | None -> Alcotest.fail "miss");
  check Alcotest.bool "unknown id misses" true
    (Cache.find c (Id.random (Rng.create 5) ~width:160) = None)

let cache_respects_budget () =
  let c = Cache.create Cache.Lru in
  Cache.set_budget c 250;
  for _ = 1 to 10 do
    ignore (Cache.offer c ~cert:(cert_of_size 100) ~data:"")
  done;
  check Alcotest.bool "within budget" true (Cache.used c <= 250);
  check Alcotest.int "two fit" 2 (Cache.entry_count c)

let cache_shrinking_budget_evicts () =
  let c = Cache.create Cache.Gds in
  Cache.set_budget c 1000;
  for _ = 1 to 5 do
    ignore (Cache.offer c ~cert:(cert_of_size 100) ~data:"")
  done;
  check Alcotest.int "five cached" 5 (Cache.entry_count c);
  Cache.set_budget c 200;
  check Alcotest.bool "evicted to fit" true (Cache.used c <= 200)

let cache_lru_evicts_least_recent () =
  let c = Cache.create Cache.Lru in
  Cache.set_budget c 200;
  let a = cert_of_size 100 and b = cert_of_size 100 in
  ignore (Cache.offer c ~cert:a ~data:"");
  ignore (Cache.offer c ~cert:b ~data:"");
  (* touch a so b is least recent *)
  ignore (Cache.find c a.Cert.file_id);
  ignore (Cache.offer c ~cert:(cert_of_size 100) ~data:"");
  check Alcotest.bool "a survives" true (Cache.mem c a.Cert.file_id);
  check Alcotest.bool "b evicted" false (Cache.mem c b.Cert.file_id)

let cache_gds_prefers_small () =
  (* With equal recency, GD-S weight L + 1/size favours small files. *)
  let c = Cache.create Cache.Gds in
  Cache.set_budget c 1000;
  let big = cert_of_size 900 and small = cert_of_size 90 in
  ignore (Cache.offer c ~cert:big ~data:"");
  ignore (Cache.offer c ~cert:small ~data:"");
  (* small (weight 1/90) + big (1/900): inserting another small file
     of size 90 must evict the big one, not the small one. *)
  let another = cert_of_size 90 in
  ignore (Cache.offer c ~cert:another ~data:"");
  check Alcotest.bool "big evicted" false (Cache.mem c big.Cert.file_id);
  check Alcotest.bool "small kept" true (Cache.mem c small.Cert.file_id);
  check Alcotest.bool "newcomer kept" true (Cache.mem c another.Cert.file_id)

let cache_oversized_file_rejected () =
  let c = Cache.create Cache.Gds in
  Cache.set_budget c 100;
  check Alcotest.bool "too big" false (Cache.offer c ~cert:(cert_of_size 200) ~data:"")

let cache_remove () =
  let c = Cache.create Cache.Gds in
  Cache.set_budget c 1000;
  let cert = cert_of_size 100 in
  ignore (Cache.offer c ~cert ~data:"");
  Cache.remove c cert.Cert.file_id;
  check Alcotest.bool "gone" false (Cache.mem c cert.Cert.file_id);
  check Alcotest.int "space back" 0 (Cache.used c)

let qcheck_cache_within_budget =
  QCheck.Test.make ~name:"cache used <= budget always" ~count:100
    QCheck.(list (int_range 1 200))
    (fun sizes ->
      let c = Cache.create Cache.Gds in
      Cache.set_budget c 500;
      List.iter (fun size -> ignore (Cache.offer c ~cert:(cert_of_size size) ~data:"")) sizes;
      Cache.used c <= 500)

(* Model check: a reference cache that finds each victim by a linear
   scan in (weight, stamp) order — the eviction rule [Cache.mli]
   documents — run side by side with [Cache] on random operation
   sequences. *)
module Model = struct
  type entry = { cert : Cert.file; mutable weight : float; mutable stamp : int }

  type t = {
    policy : Cache.policy;
    mutable budget : int;
    mutable entries : entry list;
    mutable inflation : float;
    mutable clock : int;
  }

  let create policy = { policy; budget = 0; entries = []; inflation = 0.0; clock = 0 }
  let used t = List.fold_left (fun acc e -> acc + e.cert.Cert.size) 0 t.entries
  let mem t id = List.exists (fun e -> Id.equal e.cert.Cert.file_id id) t.entries

  let touch t e =
    t.clock <- t.clock + 1;
    e.stamp <- t.clock;
    e.weight <-
      (match t.policy with
      | Cache.Lru -> float_of_int t.clock
      | _ -> t.inflation +. (1.0 /. float_of_int (Stdlib.max 1 e.cert.Cert.size)))

  let rec evict t =
    let lower a b = (a.weight, a.stamp) < (b.weight, b.stamp) in
    match t.entries with
    | first :: rest when used t > t.budget ->
      let v = List.fold_left (fun v e -> if lower e v then e else v) first rest in
      if t.policy = Cache.Gds then t.inflation <- v.weight;
      t.entries <- List.filter (fun e -> e != v) t.entries;
      evict t
    | _ -> ()

  let set_budget t b =
    t.budget <- b;
    evict t

  let remove t id =
    t.entries <- List.filter (fun e -> not (Id.equal e.cert.Cert.file_id id)) t.entries

  let find t id =
    match List.find_opt (fun e -> Id.equal e.cert.Cert.file_id id) t.entries with
    | None -> false
    | Some e ->
      touch t e;
      true

  let offer t cert =
    if cert.Cert.size > t.budget then false
    else if mem t cert.Cert.file_id then true
    else begin
      let e = { cert; weight = 0.0; stamp = 0 } in
      touch t e;
      t.entries <- e :: t.entries;
      evict t;
      mem t cert.Cert.file_id
    end
end

(* Sizes repeat so GD-S weights tie often. *)
let model_pool =
  lazy (Array.init 24 (fun i -> cert_of_size (List.nth [ 50; 100; 100; 150; 300 ] (i mod 5))))

(* (op, file index): op 0-1 offer, 2-3 find, 4 remove, 5 set budget
   to [120 * index]. *)
let model_ops = QCheck.(list_of_size Gen.(int_range 1 200) (pair (int_bound 5) (int_bound 23)))

let agrees_with_model policy ops =
  let pool = Lazy.force model_pool in
  let c = Cache.create policy and m = Model.create policy in
  Cache.set_budget c 2000;
  Model.set_budget m 2000;
  List.for_all
    (fun (op, i) ->
      let cert = pool.(i) in
      let id = cert.Cert.file_id in
      let same_result =
        match op with
        | 0 | 1 -> Cache.offer c ~cert ~data:"" = Model.offer m cert
        | 2 | 3 -> Option.is_some (Cache.find c id) = Model.find m id
        | 4 ->
          Cache.remove c id;
          Model.remove m id;
          true
        | _ ->
          Cache.set_budget c (120 * i);
          Model.set_budget m (120 * i);
          true
      in
      same_result
      && Cache.used c = Model.used m
      && Array.for_all (fun p -> Cache.mem c p.Cert.file_id = Model.mem m p.Cert.file_id) pool)
    ops

let qcheck_cache_matches_model policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "cache matches linear-scan model (%s)" (Cache.policy_name policy))
    ~count:300 model_ops (agrees_with_model policy)

(* GD-S over one file size is LRU: the two keep the same set at every
   step of any offer/find stream. *)
let qcheck_gds_one_size_is_lru =
  let pool = lazy (Array.init 12 (fun _ -> cert_of_size 100)) in
  QCheck.Test.make ~name:"GD-S over one size keeps LRU's set" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 200) (pair bool (int_bound 11)))
    (fun ops ->
      let pool = Lazy.force pool in
      let gds = Cache.create Cache.Gds and lru = Cache.create Cache.Lru in
      Cache.set_budget gds 500;
      Cache.set_budget lru 500;
      List.for_all
        (fun (is_offer, i) ->
          let cert = pool.(i) in
          (if is_offer then begin
             ignore (Cache.offer gds ~cert ~data:"");
             ignore (Cache.offer lru ~cert ~data:"")
           end
           else begin
             ignore (Cache.find gds cert.Cert.file_id);
             ignore (Cache.find lru cert.Cert.file_id)
           end);
          Array.for_all
            (fun p -> Cache.mem gds p.Cert.file_id = Cache.mem lru p.Cert.file_id)
            pool)
        ops)

let suite =
  ( "store-cache",
    [
      "store accounting" => store_accounting;
      "store get/mem" => store_get_mem;
      "store overwrite same id" => store_overwrite_same_id;
      "store threshold rule" => store_threshold_rule;
      "store put respects threshold" => store_put_respects_threshold;
      "store force_put" => store_force_put_ignores_threshold;
      "store diverted kind" => store_diverted_kind;
      "store pointers" => store_pointers;
      "store replace delta admission" => store_replace_delta_admission;
      QCheck_alcotest.to_alcotest qcheck_store_replace_sequences;
      QCheck_alcotest.to_alcotest qcheck_store_never_overflows;
      "cache no-cache policy" => cache_no_cache_policy;
      "cache stores and hits" => cache_stores_and_hits;
      "cache respects budget" => cache_respects_budget;
      "cache shrink evicts" => cache_shrinking_budget_evicts;
      "cache LRU eviction order" => cache_lru_evicts_least_recent;
      "cache GD-S prefers small" => cache_gds_prefers_small;
      "cache oversized rejected" => cache_oversized_file_rejected;
      "cache remove" => cache_remove;
      QCheck_alcotest.to_alcotest qcheck_cache_within_budget;
      QCheck_alcotest.to_alcotest (qcheck_cache_matches_model Cache.Gds);
      QCheck_alcotest.to_alcotest (qcheck_cache_matches_model Cache.Lru);
      QCheck_alcotest.to_alcotest qcheck_gds_one_size_is_lru;
    ] )
