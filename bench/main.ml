(* Bechamel micro-benchmarks of the primitives each reproduced table
   rests on — hashing and signatures (the certificate machinery behind
   EXP9/EXP13), id arithmetic and table maintenance (EXP1–EXP8
   routing), storage admission (EXP9) and cache decisions (EXP11) —
   plus whole-operation benches: one snapshot overlay build, 64 routed
   lookups and 16 full PAST inserts, the last two also with the trace
   ring off to price tracing.

   Runs the suite three times and prints one table to stdout, each row
   with its median and min–max across the runs; takes no arguments.
   End-to-end numbers come from `past_sim` (the tables, `scale`) and
   from pastbench. *)

open Bechamel
open Toolkit
module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Sha1 = Past_crypto.Sha1
module Sha256 = Past_crypto.Sha256
module Rsa = Past_crypto.Rsa
module Nat = Past_bignum.Nat

(* --- prebuilt fixtures (outside the timed sections) ------------------- *)

let rng = Rng.create 20260705
let payload_4k = String.init 4096 (fun i -> Char.chr (i mod 256))

(* The size of the materials an insert hashes: certificates and
   receipts, with hex ids and keys, run to ~300 bytes. *)
let payload_320 = String.sub payload_4k 0 320

let rsa_keypair = Rsa.generate rng ~bits:512
let rsa_signature = Rsa.sign rsa_keypair (Bytes.of_string payload_4k)
let nat_base = Rng.bits64 rng |> Int64.to_int |> abs |> Nat.of_int
let nat_exp = Nat.random_bits rng 512

(* Odd modulus: the RSA case, and the one mod_pow's Montgomery fast
   path covers. *)
let nat_mod =
  let m = Nat.add (Nat.random_bits rng 512) Nat.one in
  if Nat.is_even m then Nat.add m Nat.one else m
let overlay = lazy (Harness_fixture.overlay 2000)
let past_system = lazy (Harness_fixture.system 100)

(* Telemetry-overhead pair: the same whole-operation benches with the
   trace ring disabled (capacity 0 — recording is one dead branch).
   Comparing against the default-traced variants above bounds the cost
   of leaving causal tracing on. *)
let overlay_untraced = lazy (Harness_fixture.overlay ~trace_capacity:0 2000)
let past_system_untraced = lazy (Harness_fixture.system ~trace_capacity:0 100)

let micro_tests () =
  let overlay = Lazy.force overlay and past_system = Lazy.force past_system in
  let overlay_untraced = Lazy.force overlay_untraced
  and past_system_untraced = Lazy.force past_system_untraced in
  Test.make_grouped ~name:"past"
    [
      Test.make ~name:"sha1 (4 KiB)" (Staged.stage (fun () -> Sha1.digest_string payload_4k));
      Test.make ~name:"sha256 (4 KiB)" (Staged.stage (fun () -> Sha256.digest_string payload_4k));
      Test.make ~name:"sha256 (320 B)" (Staged.stage (fun () -> Sha256.digest_string payload_320));
      Test.make ~name:"insecure sign (store receipt)"
        (Staged.stage Harness_fixture.store_receipt_once);
      Test.make ~name:"rsa-512 sign"
        (Staged.stage (fun () -> Rsa.sign rsa_keypair (Bytes.of_string "msg")));
      Test.make ~name:"rsa-512 verify"
        (Staged.stage (fun () ->
             Rsa.verify rsa_keypair.Rsa.pub (Bytes.of_string payload_4k) rsa_signature));
      Test.make ~name:"nat modpow 512b"
        (Staged.stage (fun () -> Nat.mod_pow nat_base nat_exp nat_mod));
      Test.make ~name:"id closer x1024" (Staged.stage Harness_fixture.id_closer_1024);
      Test.make ~name:"id to_hex x1024" (Staged.stage Harness_fixture.id_to_hex_1024);
      Test.make ~name:"id shared-prefix x1024" (Staged.stage Harness_fixture.shared_prefix_1024);
      Test.make ~name:"leaf-set insert x32" (Staged.stage Harness_fixture.leaf_insert_once);
      Test.make ~name:"learn x32 leaf members (N=100)"
        (Staged.stage Harness_fixture.learn_leaf_members_once);
      Test.make ~name:"replica set k=3 x1024 (N=100)"
        (Staged.stage Harness_fixture.replica_set_1024);
      Test.make ~name:"routing-table consider x1024"
        (Staged.stage Harness_fixture.rt_consider_1024);
      Test.make ~name:"store admission check x1024" (Staged.stage Harness_fixture.store_admit_1024);
      Test.make ~name:"cache offer+find (GD-S)" (Staged.stage Harness_fixture.cache_cycle_once);
      Test.make ~name:"cache offer at full budget x1024 (GD-S, 1000 entries)"
        (Staged.stage Harness_fixture.cache_offer_full_1024);
      Test.make ~name:"timing wheel pop+push x1024 (3200 pending)"
        (Staged.stage Harness_fixture.wheel_pop_push_1024);
      Test.make ~name:"net proximity x1024" (Staged.stage Harness_fixture.net_proximity_1024);
      Test.make ~name:"static build (N=2000)"
        (Staged.stage (Harness_fixture.static_build_once 2000));
      Test.make ~name:"route lookup x64 (N=2000)"
        (Staged.stage (fun () -> Harness_fixture.route_64 overlay));
      Test.make ~name:"route lookup x64 (N=2000, tracing off)"
        (Staged.stage (fun () -> Harness_fixture.route_64 overlay_untraced));
      Test.make ~name:"full PAST insert x16 (N=100, k=3)"
        (Staged.stage (fun () -> Harness_fixture.insert_16 past_system));
      Test.make ~name:"full PAST insert x16 (N=100, k=3, tracing off)"
        (Staged.stage (fun () -> Harness_fixture.insert_16 past_system_untraced));
    ]

(* One run can move a row by a factor on a shared host (EXPERIMENTS.md
   §Benchmarks), so a single figure shows nothing about its noise. *)
let repetitions = 3

(* One run of the suite: (name, (ns per op, r²)) per row. *)
let run_once tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns = match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
      (name, (ns, r2)) :: acc)
    results []

let pretty ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let () =
  Printf.printf
    "== micro-benchmarks (Bechamel, monotonic clock; %d runs, OCaml %s, %d cores) ==\n%!"
    repetitions Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let tests = micro_tests () in
  let runs = List.init repetitions (fun _ -> run_once tests) in
  let names = List.sort_uniq compare (List.concat_map (List.map fst) runs) in
  let table = Past_stdext.Text_table.create [ "benchmark"; "median"; "min-max"; "min r^2" ] in
  List.iter
    (fun name ->
      let got = List.filter_map (List.assoc_opt name) runs in
      let ns = Array.of_list (List.sort Float.compare (List.map fst got)) in
      let n = Array.length ns in
      let median = if n = 0 then nan else ns.(n / 2) in
      let r2 = List.fold_left (fun acc (_, r) -> Float.min acc r) infinity got in
      Past_stdext.Text_table.add_row table
        [
          name;
          pretty median;
          (if n = 0 then "n/a" else pretty ns.(0) ^ " - " ^ pretty ns.(n - 1));
          (if Float.is_nan r2 || r2 = infinity then "-" else Printf.sprintf "%.3f" r2);
        ])
    names;
  Past_stdext.Text_table.print table
