(* EXP15 — mega-scale verification of the asymptotic claims (C1, C3).

   "a message can be routed to the numerically closest node in less
   than ⌈log_2^b N⌉ steps on average" and each node maintains
   "(2^b − 1)·⌈log_2^b N⌉ + 2l" table entries — §2.2

   The per-N experiments (EXP1, EXP3) check these at fixed sizes up to
   a few thousand nodes. Here we sweep N log-spaced into the 10^5–10^6
   range over the snapshot-bootstrap builder, fit the measured mean
   hop count and mean per-node state size against log_2^b N by least
   squares, and assert the fitted slopes sit inside analytic windows
   (the DHT scalability framework of Kong et al. — see PAPERS.md —
   derives the same log-growth curves analytically; the fit is the
   empirical exponent check against them).

   Expected slopes, not just "about 1":
   - Hops grow by at most one per extra id digit, but leaf-set
     shortcuts absorb the last digit-and-a-bit, so the slope lands
     below 1 — we accept [1 − tolerance, 1].
   - State grows by at most one routing row (2^b − 1 entries) per
     extra digit; rows near the bottom stay partially filled, so the
     measured slope lands between a couple of entries and the full
     2^b − 1 per digit.

   Memory is measured as the Gc live-words delta around the build
   (compacting first), i.e. the whole simulation footprint — overlay,
   network, telemetry — divided by N. Obj.reachable_words would be
   quadratic here: every table reaches the overlay-shared peer
   directory, so per-structure traversals each walk the whole overlay. *)

module Id = Past_id.Id
module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Config = Past_pastry.Config
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table

type params = {
  ns : int list;  (** sweep sizes, ascending *)
  lookups : int;  (** random lookups per N *)
  dynamic_tail : float;  (** fraction of nodes joining via the §2.2 protocol *)
  seed : int;
  hop_tolerance : float;  (** fitted hop slope must lie in [1 − tol, 1 + tol/4] *)
}

(* log-spaced sweep: k points from lo to hi at equal log increments. *)
let log_spaced ~lo ~hi ~k =
  if k <= 1 || lo >= hi then [ lo ]
  else
    List.init k (fun i ->
        let f = float_of_int i /. float_of_int (k - 1) in
        let v = float_of_int lo *. ((float_of_int hi /. float_of_int lo) ** f) in
        int_of_float (Float.round v))

type row = {
  n : int;
  build_s : float;  (** wall-clock seconds for the snapshot build *)
  bytes_per_node : int;  (** Gc live-words delta × word size / N *)
  avg_hops : float;
  max_hops : int;
  avg_state : float;  (** mean Node.state_size *)
  log_bound : float;  (** log_2^b N *)
  sent : int;
  delivered : int;
  misdelivered : int;
}

type fit = { slope : float; intercept : float }

(* Ordinary least squares of y against x. *)
let least_squares xs ys =
  let n = float_of_int (List.length xs) in
  let sx = List.fold_left ( +. ) 0.0 xs in
  let sy = List.fold_left ( +. ) 0.0 ys in
  let sxx = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  let sxy = List.fold_left2 (fun a x y -> a +. (x *. y)) 0.0 xs ys in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-9 then { slope = 0.0; intercept = sy /. n }
  else
    let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
    { slope; intercept = (sy -. (slope *. sx)) /. n }

type result = {
  rows : row list;
  hop_fit : fit;
  state_fit : fit;
  hop_ok : bool;
  state_ok : bool;
}

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let run_one ~config ~params n =
  let words0 = live_words () in
  let t0 = Unix.gettimeofday () in
  let overlay : Harness.probe Overlay.t =
    Overlay.create ~config ~trace_capacity:0 ~seed:(params.seed + n) ()
  in
  Overlay.build_static ~dynamic_tail:params.dynamic_tail overlay ~n;
  let build_s = Unix.gettimeofday () -. t0 in
  let bytes_per_node = (live_words () - words0) * (Sys.word_size / 8) / n in
  let state = Stats.create () in
  Array.iter (fun node -> Stats.add_int state (Node.state_size node)) (Overlay.nodes overlay);
  let r = Harness.random_lookups overlay ~lookups:params.lookups in
  {
    n;
    build_s;
    bytes_per_node;
    avg_hops = Stats.mean r.Harness.hops;
    max_hops = int_of_float (Stats.max r.Harness.hops);
    avg_state = Stats.mean state;
    log_bound = Harness.log2b n config.Config.b;
    sent = r.Harness.sent;
    delivered = r.Harness.delivered;
    misdelivered = r.Harness.misdelivered;
  }

let run params =
  let config = Config.default in
  (* Sequential on purpose: each N is measured against a compacted
     heap, and the previous overlay must be garbage before the next
     build's live-words baseline is taken. *)
  let rows = List.map (run_one ~config ~params) params.ns in
  let xs = List.map (fun r -> r.log_bound) rows in
  let hop_fit = least_squares xs (List.map (fun r -> r.avg_hops) rows) in
  let state_fit = least_squares xs (List.map (fun r -> r.avg_state) rows) in
  let hop_ok =
    hop_fit.slope >= 1.0 -. params.hop_tolerance
    && hop_fit.slope <= 1.0 +. (params.hop_tolerance /. 4.0)
  in
  (* One extra digit asymptotically adds one routing row: 2^b − 1
     entries. At finite N the fit overshoots that, because while a new
     row is opening the partially-filled rows above it are still
     deepening — two rows' worth of marginal fill — so the window
     allows up to twice the asymptotic slope. *)
  let cols = float_of_int ((1 lsl config.Config.b) - 1) in
  let state_ok = state_fit.slope >= 1.0 && state_fit.slope <= 2.0 *. cols in
  { rows; hop_fit; state_fit; hop_ok; state_ok }

let table { rows; _ } =
  let t =
    Text_table.create
      [ "N"; "build s"; "bytes/node"; "avg hops"; "max"; "log_2^b N"; "avg state"; "delivered"; "misrouted" ]
  in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%d|%.1f|%d|%.2f|%d|%.2f|%.1f|%d/%d|%d" r.n r.build_s
        r.bytes_per_node r.avg_hops r.max_hops r.log_bound r.avg_state r.delivered r.sent
        r.misdelivered)
    rows;
  t

let fits_table { hop_fit; state_fit; hop_ok; state_ok; _ } =
  let t = Text_table.create [ "fit (y = a·log_2^b N + c)"; "slope a"; "intercept c"; "window"; "ok" ] in
  Text_table.add_rowf t "avg hops|%.3f|%.3f|%s|%s" hop_fit.slope hop_fit.intercept
    "[1−tol, 1+tol/4]"
    (if hop_ok then "yes" else "NO");
  Text_table.add_rowf t "avg state|%.3f|%.3f|%s|%s" state_fit.slope state_fit.intercept
    "[1, 2·(2^b−1)]"
    (if state_ok then "yes" else "NO");
  t

(* Deterministic per-route dump over a snapshot-built overlay — the
   pinned golden for the snapshot builder (test/exp15_scale.golden).
   Any change to the builder's RNG draw order, the packed-table
   layout, or routing policy shows a diff here. Deliberately excludes
   wall clock and memory: golden bytes must be stable. *)
let route_dump ?(n = 300) ?(lookups = 60) ?(seed = 15) () =
  let overlay : Harness.probe Overlay.t = Overlay.create ~trace_capacity:0 ~seed () in
  Overlay.build_static ~dynamic_tail:0.01 overlay ~n;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "EXP15 route golden (n=%d lookups=%d seed=%d, snapshot builder)\n" n
       lookups seed);
  let last = ref None in
  Overlay.install_apps overlay (fun node ->
      {
        Harness.null_app with
        Node.deliver = (fun ~key:_ _ info -> last := Some (Node.id node, info.Node.hops));
      });
  let rng = Overlay.rng overlay in
  for i = 1 to lookups do
    let key = Id.random rng ~width:Id.node_bits in
    let src = Overlay.random_live_node overlay in
    last := None;
    Node.route src ~key ();
    Overlay.run overlay;
    match !last with
    | Some (dest, hops) ->
      Buffer.add_string buf
        (Printf.sprintf "%02d key=%s src=%s dest=%s hops=%d\n" i (Id.short key)
           (Id.short (Node.id src)) (Id.short dest) hops)
    | None -> Buffer.add_string buf (Printf.sprintf "%02d key=%s LOST\n" i (Id.short key))
  done;
  Buffer.contents buf
