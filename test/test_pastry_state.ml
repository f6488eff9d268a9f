(* Routing table, leaf set and neighborhood set invariants. *)

module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Config = Past_pastry.Config
module Peer = Past_pastry.Peer
module Routing_table = Past_pastry.Routing_table
module Leaf_set = Past_pastry.Leaf_set
module Neighborhood = Past_pastry.Neighborhood
module Nat = Past_bignum.Nat

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f
let config = Config.default
let small_config = { Config.default with Config.leaf_set_size = 4 }
let mkid hex = Id.of_hex ~width:128 hex
let peer hex addr = Peer.make ~id:(mkid hex) ~addr

(* --- Config --- *)

let config_validation () =
  Config.validate Config.default;
  Alcotest.check_raises "bad b" (Invalid_argument "Config: b must be 1, 2, 4 or 8") (fun () ->
      Config.validate { Config.default with Config.b = 3 });
  Alcotest.check_raises "odd leaf" (Invalid_argument "Config: leaf_set_size must be even and >= 2")
    (fun () -> Config.validate { Config.default with Config.leaf_set_size = 5 });
  check Alcotest.int "rows" 32 (Config.rows Config.default);
  check Alcotest.int "cols" 16 (Config.cols Config.default)

(* --- Routing table --- *)

let own = mkid "a0000000000000000000000000000000"

let rt_placement () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 1.0) () in
  let p = peer "b0000000000000000000000000000000" 1 in
  (* shares 0 digits, first digit 0xb -> row 0, col 11 *)
  check Alcotest.bool "installed" true (Routing_table.consider rt p);
  check Alcotest.bool "found" true (Routing_table.lookup rt ~row:0 ~col:11 <> None);
  check Alcotest.int "count" 1 (Routing_table.entry_count rt);
  (* shares 1 digit (a), second digit 5 -> row 1, col 5 *)
  let q = peer "a5000000000000000000000000000000" 2 in
  ignore (Routing_table.consider rt q);
  check Alcotest.bool "row1" true (Routing_table.lookup rt ~row:1 ~col:5 <> None)

let rt_rejects_self () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 0.0) () in
  check Alcotest.bool "self ignored" false
    (Routing_table.consider rt (Peer.make ~id:own ~addr:9))

let rt_proximity_preference () =
  let proximity a = if a = 1 then 100.0 else 10.0 in
  let rt = Routing_table.create ~config ~own ~proximity () in
  let far = peer "b0000000000000000000000000000000" 1 in
  let near = peer "b1000000000000000000000000000000" 2 in
  ignore (Routing_table.consider rt far);
  check Alcotest.bool "near replaces far" true (Routing_table.consider rt near);
  (match Routing_table.lookup rt ~row:0 ~col:11 with
  | Some p -> check Alcotest.int "kept near" 2 p.Peer.addr
  | None -> Alcotest.fail "missing");
  (* a farther candidate does not evict *)
  check Alcotest.bool "far not reinstalled" false (Routing_table.consider rt far)

let rt_no_proximity_keeps_first () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 1.0) () in
  let a = peer "b0000000000000000000000000000000" 1 in
  let b = peer "b1000000000000000000000000000000" 2 in
  check Alcotest.bool "first installs" true (Routing_table.consider_no_proximity rt a);
  check Alcotest.bool "second rejected" false (Routing_table.consider_no_proximity rt b)

let rt_remove () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 1.0) () in
  ignore (Routing_table.consider rt (peer "b0000000000000000000000000000000" 1));
  ignore (Routing_table.consider rt (peer "c0000000000000000000000000000000" 2));
  check Alcotest.int "two entries" 2 (Routing_table.entry_count rt);
  check Alcotest.bool "removed b" true (Routing_table.remove_addr rt 1);
  check Alcotest.int "one left" 1 (Routing_table.entry_count rt);
  check Alcotest.bool "removed c" true (Routing_table.remove_addr rt 2);
  check Alcotest.int "empty" 0 (Routing_table.entry_count rt)

let rt_next_hop () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 1.0) () in
  let p = peer "b0000000000000000000000000000000" 1 in
  ignore (Routing_table.consider rt p);
  let key = mkid "b7777777777777777777777777777777" in
  (match Routing_table.next_hop rt ~key with
  | Some q -> check Alcotest.int "hop to b-prefix node" 1 q.Peer.addr
  | None -> Alcotest.fail "expected hop");
  check Alcotest.bool "no entry for other digit" true
    (Routing_table.next_hop rt ~key:(mkid "c0000000000000000000000000000000") = None)

let rt_row_peers () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 1.0) () in
  ignore (Routing_table.consider rt (peer "b0000000000000000000000000000000" 1));
  ignore (Routing_table.consider rt (peer "a1000000000000000000000000000000" 2));
  check Alcotest.int "row 0 has one" 1 (List.length (Routing_table.row_peers rt 0));
  check Alcotest.int "row 1 has one" 1 (List.length (Routing_table.row_peers rt 1));
  check Alcotest.int "all" 2 (List.length (Routing_table.peers rt))

let rt_errors_name_values () =
  let rt = Routing_table.create ~config ~own ~proximity:(fun _ -> 1.0) () in
  Alcotest.check_raises "lookup"
    (Invalid_argument "Routing_table.lookup: row 32, column 3 out of range (32 rows, 16 columns)")
    (fun () -> ignore (Routing_table.lookup rt ~row:32 ~col:3));
  Alcotest.check_raises "lookup column"
    (Invalid_argument "Routing_table.lookup: row 0, column -1 out of range (32 rows, 16 columns)")
    (fun () -> ignore (Routing_table.lookup rt ~row:0 ~col:(-1)));
  Alcotest.check_raises "row_peers"
    (Invalid_argument "Routing_table.row_peers: row -1 out of range (32 rows)") (fun () ->
      ignore (Routing_table.row_peers rt (-1)))

(* --- Leaf set --- *)

let i_id n = Id_oracle.add_int (Id.of_hex ~width:128 "80000000000000000000000000000000") n

let leaf_basic () =
  let ls = Leaf_set.create ~config:small_config ~own:(i_id 0) () in
  check Alcotest.bool "empty" true (Leaf_set.is_empty ls);
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 1) ~addr:1));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (-1)) ~addr:2));
  check Alcotest.int "size" 2 (Leaf_set.size ls);
  check Alcotest.bool "mem" true (Leaf_set.mem_addr ls 1);
  check Alcotest.bool "self rejected" false
    (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 0) ~addr:3))

let leaf_caps_sides () =
  let ls = Leaf_set.create ~config:small_config ~own:(i_id 0) () in
  (* l=4 -> 2 per side; add 5 on the larger side. *)
  for d = 1 to 5 do
    ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (10 * d)) ~addr:d))
  done;
  check Alcotest.int "larger capped" 2 (List.length (Leaf_set.larger ls));
  (* The two closest survive. *)
  let addrs = List.map (fun p -> p.Peer.addr) (Leaf_set.larger ls) in
  check (Alcotest.list Alcotest.int) "closest kept" [ 1; 2 ] addrs

let leaf_ordering () =
  let ls = Leaf_set.create ~config:small_config ~own:(i_id 0) () in
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 30) ~addr:3));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 10) ~addr:1));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (-20)) ~addr:2));
  let larger = List.map (fun p -> p.Peer.addr) (Leaf_set.larger ls) in
  check (Alcotest.list Alcotest.int) "larger sorted by distance" [ 1; 3 ] larger;
  match Leaf_set.extreme_larger ls with
  | Some p -> check Alcotest.int "extreme" 3 p.Peer.addr
  | None -> Alcotest.fail "extreme missing"

let leaf_closest () =
  let ls = Leaf_set.create ~config:small_config ~own:(i_id 0) () in
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 10) ~addr:1));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (-10)) ~addr:2));
  (match Leaf_set.closest_including_self ls (i_id (-9)) with
  | Some p -> check Alcotest.int "closest member on the smaller side" 2 p.Peer.addr
  | None -> Alcotest.fail "smaller-side peer is closest");
  (match Leaf_set.closest_including_self ls (i_id 2) with
  | None -> ()
  | Some _ -> Alcotest.fail "self is closest");
  match Leaf_set.closest_including_self ls (i_id 9) with
  | Some p -> check Alcotest.int "peer closest" 1 p.Peer.addr
  | None -> Alcotest.fail "peer is closest"

let leaf_covers () =
  let ls = Leaf_set.create ~config:small_config ~own:(i_id 0) () in
  (* Sparse: covers everything. *)
  check Alcotest.bool "sparse covers" true (Leaf_set.covers ls (i_id 1_000_000));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 10) ~addr:1));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 20) ~addr:2));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (-10)) ~addr:3));
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (-20)) ~addr:4));
  (* Both sides full now (cap 2). *)
  check Alcotest.bool "inside" true (Leaf_set.covers ls (i_id 15));
  check Alcotest.bool "inside negative" true (Leaf_set.covers ls (i_id (-15)));
  check Alcotest.bool "boundary" true (Leaf_set.covers ls (i_id 20));
  check Alcotest.bool "outside" false (Leaf_set.covers ls (i_id 25));
  check Alcotest.bool "far outside" false (Leaf_set.covers ls (i_id 1_000_000))

let leaf_replica_set () =
  let ls = Leaf_set.create ~config:{ Config.default with Config.leaf_set_size = 8 } ~own:(i_id 0) () in
  List.iter
    (fun d -> ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id (10 * d)) ~addr:(10 + d))))
    [ 1; 2; 3; -1; -2; -3 ]
  |> ignore;
  let rs = Leaf_set.replica_set ls ~k:3 (i_id 1) in
  check Alcotest.int "k entries" 3 (List.length rs);
  (match rs with
  | `Self :: `Peer p1 :: `Peer p2 :: [] ->
    check Alcotest.int "then closest" 11 p1.Peer.addr;
    check Alcotest.bool "third is +-" true (p2.Peer.addr = 9 || p2.Peer.addr = 12)
  | _ -> Alcotest.fail "self should be first");
  check Alcotest.int "k capped by members+1" 7
    (List.length (Leaf_set.replica_set ls ~k:50 (i_id 0)));
  Alcotest.check_raises "k named"
    (Invalid_argument "Leaf_set.replica_set: k must be positive (got 0)") (fun () ->
      ignore (Leaf_set.replica_set ls ~k:0 (i_id 0)))

let leaf_remove () =
  let ls = Leaf_set.create ~config:small_config ~own:(i_id 0) () in
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:(i_id 10) ~addr:1));
  check Alcotest.bool "removed" true (Leaf_set.remove_addr ls 1);
  check Alcotest.bool "gone" false (Leaf_set.mem_addr ls 1);
  check Alcotest.bool "remove again false" false (Leaf_set.remove_addr ls 1)

let leaf_wrap_around () =
  (* Own id near zero: smaller side wraps to the top of the ring. *)
  let own = Id_oracle.add_int (Id.zero ~width:128) 5 in
  let ls = Leaf_set.create ~config:small_config ~own () in
  let top = Id_oracle.add_int (Id.zero ~width:128) (-3) in
  ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id:top ~addr:1));
  check Alcotest.int "wrapped into smaller side" 1 (List.length (Leaf_set.smaller ls));
  match Leaf_set.closest_including_self ls (Id_oracle.add_int (Id.zero ~width:128) (-1)) with
  | Some p -> check Alcotest.int "wrap closest" 1 p.Peer.addr
  | None -> Alcotest.fail "wrapped peer is closer"

(* A leaf set of size [l] offered a random pool of 1..3l peers, so it
   may be sparse (the whole ring fits and its two arcs overlap) or
   full with disjoint arcs; a quarter of the cases then remove a peer
   or two, leaving a side short. "Near" ids lie within a few thousand
   of own, so their distances share the high word and near keys tie
   exactly between two nodes. Returns own, the near-id generator
   and the leaf set. *)
let random_leaf_set rng l =
  let own = Id.random rng ~width:128 in
  let id_mode = Rng.int rng 3 in
  let near () = Id_oracle.add_int own (Rng.int rng 6001 - 3000) in
  let random_id () =
    match id_mode with
    | 0 -> Id.random rng ~width:128
    | 1 -> near ()
    | _ -> if Rng.bool rng then near () else Id.random rng ~width:128
  in
  let pool = 1 + Rng.int rng (3 * l) in
  let used = Hashtbl.create 64 in
  Hashtbl.replace used own ();
  let rec fresh () =
    let id = random_id () in
    if Hashtbl.mem used id then fresh ()
    else begin
      Hashtbl.replace used id ();
      id
    end
  in
  let ids = Array.init pool (fun _ -> fresh ()) in
  let ls = Leaf_set.create ~config:{ Config.default with Config.leaf_set_size = l } ~own () in
  Array.iteri (fun addr id -> ignore (Leaf_set.add ls ~now:0.0 (Peer.make ~id ~addr))) ids;
  if Rng.int rng 4 = 0 then
    for _ = 0 to Rng.int rng 2 do
      ignore (Leaf_set.remove_addr ls (Rng.int rng pool))
    done;
  (own, near, ls)

let antipode id =
  Id_oracle.of_nat ~width:128 (Nat.add (Id_oracle.to_nat id) (Nat.shift_left Nat.one 127))

(* qcheck: replica_set matches a brute-force sort of members+self.
   Keys include own, every member, a member's neighbour and own's
   antipode; k runs over 1, 3, l/2 and l+1. *)
let qcheck_replica_set =
  QCheck.Test.make ~name:"replica_set = brute force k closest" ~count:300
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, l_index) ->
      let rng = Rng.create seed in
      let l = [| 2; 4; 8; 16 |].(l_index) in
      let own, near, ls = random_leaf_set rng l in
      let members = Leaf_set.members ls |> List.map (fun p -> p.Peer.id) in
      let keys =
        own :: antipode own :: Id.random rng ~width:128 :: near () :: near ()
        :: List.concat_map (fun m -> [ m; Id_oracle.add_int m 1 ]) members
      in
      List.for_all
        (fun key ->
          let sorted = List.sort (fun a b -> Id.closer ~target:key a b) (own :: members) in
          List.for_all
            (fun k ->
              let got =
                Leaf_set.replica_set ls ~k key
                |> List.map (function `Self -> own | `Peer p -> p.Peer.id)
              in
              List.equal Id.equal got (List.filteri (fun i _ -> i < k) sorted))
            [ 1; 3; l / 2; l + 1 ])
        keys)

(* Coverage by big integers: with both sides full, the key lies on the
   counterclockwise arc from the smaller extreme to own or on the
   clockwise arc from own to the larger extreme; a side with room
   means the node knows that whole side of the ring. *)
let covers_oracle ~l ls own key =
  match (Leaf_set.smaller ls, Leaf_set.larger ls) with
  | smaller, larger when List.length smaller < l / 2 || List.length larger < l / 2 -> true
  | smaller, larger ->
    let lo = (List.nth smaller ((l / 2) - 1)).Peer.id
    and hi = (List.nth larger ((l / 2) - 1)).Peer.id in
    Nat.compare (Id_oracle.cw_distance lo key) (Id_oracle.cw_distance lo own) <= 0
    || Nat.compare (Id_oracle.cw_distance own key) (Id_oracle.cw_distance own hi) <= 0

(* qcheck: covers matches the oracle at own, each extreme and its two
   neighbours, own's antipode and random and near keys. *)
let qcheck_covers =
  QCheck.Test.make ~name:"covers = arc oracle" ~count:300
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, l_index) ->
      let rng = Rng.create seed in
      let l = [| 2; 4; 8; 16 |].(l_index) in
      let own, near, ls = random_leaf_set rng l in
      let extremes =
        List.filter_map
          (Option.map (fun (p : Peer.t) -> p.Peer.id))
          [ Leaf_set.extreme_smaller ls; Leaf_set.extreme_larger ls ]
      in
      let keys =
        own :: antipode own :: Id.random rng ~width:128 :: Id.random rng ~width:128 :: near ()
        :: List.concat_map
             (fun e -> [ e; Id_oracle.add_int e 1; Id_oracle.add_int e (-1) ])
             extremes
      in
      List.for_all (fun key -> Leaf_set.covers ls key = covers_oracle ~l ls own key) keys)

(* qcheck: [add] and [remove_addr] against a naive model. Each model
   side is a plain list sorted by the exact big-integer ring distance
   from own (clockwise on the larger side, counterclockwise on the
   smaller; ties by id), truncated to l/2, refusing an address it
   already holds; [members] is the historical construction — smaller
   then larger, deduplicated through a 64-bucket table, folded out.
   Pools smaller than l/2 put every peer on both sides of a sparse
   ring; "near" ids lie within a few thousand of own, so their
   distances share the high word and the low word decides. *)
let model_side_add ~cap ~dist side ((addr, id) as entry) =
  if List.exists (fun (a, _) -> a = addr) side then (side, false)
  else begin
    let d = dist id in
    let rec insert = function
      | [] -> [ entry ]
      | ((_, id') as e) :: rest ->
        let c = Nat.compare d (dist id') in
        if c < 0 || (c = 0 && Id.compare id id' < 0) then entry :: e :: rest
        else e :: insert rest
    in
    let side = List.filteri (fun i _ -> i < cap) (insert side) in
    (side, List.exists (fun (a, _) -> a = addr) side)
  end

let model_members smaller larger =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a, _) -> if not (Hashtbl.mem seen a) then Hashtbl.replace seen a ())
    (smaller @ larger);
  Hashtbl.fold (fun a () acc -> a :: acc) seen []

let qcheck_leaf_set_model =
  QCheck.Test.make ~name:"leaf set add/remove_addr = sorted-list model" ~count:300
    QCheck.(triple small_nat (int_bound 2) (int_bound 3))
    (fun (seed, id_mode, l_index) ->
      let rng = Rng.create seed in
      let l = [| 2; 4; 8; 16 |].(l_index) in
      let own = Id.random rng ~width:128 in
      let random_id () =
        let near () = Id_oracle.add_int own (Rng.int rng 6001 - 3000) in
        match id_mode with
        | 0 -> Id.random rng ~width:128
        | 1 -> near ()
        | _ -> if Rng.bool rng then near () else Id.random rng ~width:128
      in
      let pool = 1 + Rng.int rng 24 in
      let used = Hashtbl.create 32 in
      Hashtbl.replace used own ();
      let rec fresh () =
        let id = random_id () in
        if Hashtbl.mem used id then fresh ()
        else begin
          Hashtbl.replace used id ();
          id
        end
      in
      let ids = Array.init pool (fun _ -> fresh ()) in
      let ls = Leaf_set.create ~config:{ Config.default with Config.leaf_set_size = l } ~own () in
      let smaller = ref [] and larger = ref [] in
      let addrs peers = List.map (fun (p : Peer.t) -> p.Peer.addr) peers in
      let agrees = ref true in
      for _ = 1 to 80 do
        let a = Rng.int rng pool in
        let expected, got =
          match Rng.int rng 8 with
          | 0 | 1 ->
            let keep = List.filter (fun (a', _) -> a' <> a) in
            let s = keep !smaller and g = keep !larger in
            let changed =
              List.length s < List.length !smaller || List.length g < List.length !larger
            in
            smaller := s;
            larger := g;
            (changed, Leaf_set.remove_addr ls a)
          | 2 -> (false, Leaf_set.add ls ~now:0.0 (Peer.make ~id:own ~addr:pool))
          | _ ->
            let g, cg =
              model_side_add ~cap:(l / 2) ~dist:(Id_oracle.cw_distance own) !larger (a, ids.(a))
            in
            let s, cs =
              model_side_add ~cap:(l / 2)
                ~dist:(fun id -> Id_oracle.cw_distance id own)
                !smaller (a, ids.(a))
            in
            larger := g;
            smaller := s;
            (cg || cs, Leaf_set.add ls ~now:0.0 (Peer.make ~id:ids.(a) ~addr:a))
        in
        if
          expected <> got
          || addrs (Leaf_set.smaller ls) <> List.map fst !smaller
          || addrs (Leaf_set.larger ls) <> List.map fst !larger
          || addrs (Leaf_set.members ls) <> model_members !smaller !larger
        then agrees := false
      done;
      !agrees)

(* qcheck: the per-slot liveness follows its address through inserts,
   shifts, removals and second-side slots of a sparse ring. Model per
   member address: last heard (its latest [heard] while a member, else
   the time it became one) and probe deadline. [probe_silent] must name
   each member silent for more than a period exactly once, [expired]
   each member past its deadline, and [vouched] each side without the
   members awaiting a probe's answer. [track_liveness] restamps every
   member, with no probe pending or, as a recovering node does, under
   probe until a deadline one timeout away. *)
let qcheck_liveness_model =
  QCheck.Test.make ~name:"leaf set liveness = per-address model" ~count:300
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, l_index) ->
      let rng = Rng.create seed in
      let l = [| 2; 4; 8; 16 |].(l_index) in
      let own = Id.random rng ~width:128 in
      let pool = 1 + Rng.int rng 24 in
      let ids = Array.init pool (fun _ -> Id_oracle.add_int own (1 + Rng.int rng 100_000)) in
      let distinct = List.length (List.sort_uniq Id.compare (Array.to_list ids)) = pool in
      let ls = Leaf_set.create ~config:{ Config.default with Config.leaf_set_size = l } ~own () in
      let period = 500.0 and timeout = 1500.0 in
      let heard = Hashtbl.create 32 and due = Hashtbl.create 32 in
      let now = ref 0.0 in
      let agrees = ref true in
      let sorted l = List.sort compare l in
      let members () = List.filter (Leaf_set.mem_addr ls) (List.init pool Fun.id) in
      let join_new before =
        List.iter
          (fun a ->
            if not (List.mem a before) then begin
              Hashtbl.replace heard a !now;
              Hashtbl.replace due a infinity
            end)
          (members ())
      in
      for a = 0 to pool - 1 do
        ignore (Leaf_set.add ls ~now:!now (Peer.make ~id:ids.(a) ~addr:a))
      done;
      let track () =
        let d = if Rng.bool rng then infinity else !now +. timeout in
        Leaf_set.track_liveness ls ~now:!now ~due:d;
        List.iter
          (fun a ->
            Hashtbl.replace heard a !now;
            Hashtbl.replace due a d)
          (members ())
      in
      track ();
      for _ = 1 to 120 do
        now := !now +. Rng.float rng 400.0;
        let a = Rng.int rng pool in
        let before = members () in
        (match Rng.int rng 9 with
        | 8 -> track ()
        | 0 | 1 | 2 -> ignore (Leaf_set.add ls ~now:!now (Peer.make ~id:ids.(a) ~addr:a))
        | 3 -> ignore (Leaf_set.remove_addr ls a)
        | 4 | 5 ->
          Leaf_set.heard ls a ~now:!now;
          if List.mem a before then begin
            Hashtbl.replace heard a !now;
            Hashtbl.replace due a infinity
          end
        | 6 ->
          let probed = ref [] in
          Leaf_set.probe_silent ls ~now:!now ~period ~timeout (fun a -> probed := a :: !probed);
          let silent = List.filter (fun a -> !now -. Hashtbl.find heard a > period) before in
          List.iter
            (fun a ->
              if Hashtbl.find due a = infinity then
                Hashtbl.replace due a (Hashtbl.find heard a +. period +. timeout))
            silent;
          if sorted !probed <> sorted silent then agrees := false
        | _ ->
          let late = List.filter (fun a -> Hashtbl.find due a < !now) before in
          if sorted (Leaf_set.expired ls ~now:!now) <> sorted late then agrees := false);
        join_new before;
        List.iter
          (fun a -> if Leaf_set.last_heard ls a <> Some (Hashtbl.find heard a) then agrees := false)
          (members ());
        let vouched side =
          List.filter (fun (p : Peer.t) -> Hashtbl.find due p.Peer.addr = infinity) side
        in
        let smaller, larger = Leaf_set.vouched ls in
        if
          smaller <> vouched (Leaf_set.smaller ls) || larger <> vouched (Leaf_set.larger ls)
        then agrees := false
      done;
      (not distinct) || !agrees)

(* --- Neighborhood --- *)

let nbhd_caps_and_keeps_closest () =
  let nb =
    Neighborhood.create ~config:{ Config.default with Config.neighborhood_size = 3 } ~own:(i_id 0)
      ()
  in
  for d = 1 to 6 do
    ignore (Neighborhood.add nb ~proximity:(float_of_int d) (Peer.make ~id:(i_id d) ~addr:d))
  done;
  check Alcotest.int "capped" 3 (Neighborhood.size nb);
  let addrs = List.sort compare (List.map (fun p -> p.Peer.addr) (Neighborhood.members nb)) in
  check (Alcotest.list Alcotest.int) "closest three" [ 1; 2; 3 ] addrs;
  (* A closer latecomer evicts the farthest member. *)
  ignore (Neighborhood.add nb ~proximity:0.5 (Peer.make ~id:(i_id 9) ~addr:9));
  let addrs = List.sort compare (List.map (fun p -> p.Peer.addr) (Neighborhood.members nb)) in
  check (Alcotest.list Alcotest.int) "evicted farthest" [ 1; 2; 9 ] addrs;
  (* A full set refuses a newcomer tied with its farthest entry. *)
  check Alcotest.bool "tie with farthest refused" false
    (Neighborhood.add nb ~proximity:2.0 (Peer.make ~id:(i_id 10) ~addr:10));
  let empty =
    Neighborhood.create ~config:{ Config.default with Config.neighborhood_size = 0 } ~own:(i_id 0)
      ()
  in
  check Alcotest.bool "size-0 set refuses" false
    (Neighborhood.add empty ~proximity:1.0 (Peer.make ~id:(i_id 1) ~addr:1))

let nbhd_dedup_and_remove () =
  let nb = Neighborhood.create ~config:Config.default ~own:(i_id 0) () in
  ignore (Neighborhood.add nb ~proximity:1.0 (Peer.make ~id:(i_id 1) ~addr:1));
  check Alcotest.bool "duplicate rejected" false
    (Neighborhood.add nb ~proximity:0.5 (Peer.make ~id:(i_id 1) ~addr:1));
  check Alcotest.bool "removed" true (Neighborhood.remove_addr nb 1);
  check Alcotest.int "empty" 0 (Neighborhood.size nb)

let suite =
  ( "pastry-state",
    [
      "config validation" => config_validation;
      "rt placement" => rt_placement;
      "rt rejects self" => rt_rejects_self;
      "rt proximity preference" => rt_proximity_preference;
      "rt no-proximity keeps first" => rt_no_proximity_keeps_first;
      "rt remove" => rt_remove;
      "rt next hop" => rt_next_hop;
      "rt row peers" => rt_row_peers;
      "rt errors name their values" => rt_errors_name_values;
      "leaf basic" => leaf_basic;
      "leaf caps sides" => leaf_caps_sides;
      "leaf ordering" => leaf_ordering;
      "leaf closest" => leaf_closest;
      "leaf covers" => leaf_covers;
      "leaf replica set" => leaf_replica_set;
      "leaf remove" => leaf_remove;
      "leaf wrap-around" => leaf_wrap_around;
      QCheck_alcotest.to_alcotest qcheck_replica_set;
      QCheck_alcotest.to_alcotest qcheck_covers;
      QCheck_alcotest.to_alcotest qcheck_leaf_set_model;
      QCheck_alcotest.to_alcotest qcheck_liveness_model;
      "neighborhood cap/closest" => nbhd_caps_and_keeps_closest;
      "neighborhood dedup/remove" => nbhd_dedup_and_remove;
    ] )
