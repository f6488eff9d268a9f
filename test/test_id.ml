module Id = Past_id.Id
module Nat = Past_bignum.Nat
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f
let id_t = Alcotest.testable (fun fmt i -> Format.pp_print_string fmt (Id.to_hex i)) Id.equal

let gen_id width =
  QCheck.Gen.(
    map
      (fun seed ->
        let rng = Rng.create seed in
        Id.random rng ~width)
      int)

let arb_id = QCheck.make ~print:Id.to_hex (gen_id 128)
let arb_pair = QCheck.pair arb_id arb_id

let widths () =
  check Alcotest.int "node bits" 128 Id.node_bits;
  check Alcotest.int "file bits" 160 Id.file_bits;
  let rng = Rng.create 1 in
  check Alcotest.int "random width" 128 (Id.bits (Id.random rng ~width:128));
  check Alcotest.int "random width 160" 160 (Id.bits (Id.random rng ~width:160))

let hex_roundtrip () =
  let rng = Rng.create 2 in
  for _ = 1 to 50 do
    let i = Id.random rng ~width:128 in
    check id_t "roundtrip" i (Id.of_hex ~width:128 (Id.to_hex i))
  done

let of_hex_pads () =
  let i = Id.of_hex ~width:128 "ff" in
  check Alcotest.string "padded" "000000000000000000000000000000ff" (Id.to_hex i)

let digits_manual () =
  let i = Id.of_hex ~width:128 "a5000000000000000000000000000001" in
  check Alcotest.int "digit 0 (b=4)" 0xa (Id.digit ~b:4 i 0);
  check Alcotest.int "digit 1 (b=4)" 0x5 (Id.digit ~b:4 i 1);
  check Alcotest.int "digit 31 (b=4)" 0x1 (Id.digit ~b:4 i 31);
  check Alcotest.int "digit 0 (b=8)" 0xa5 (Id.digit ~b:8 i 0);
  check Alcotest.int "digit 0 (b=1)" 1 (Id.digit ~b:1 i 0);
  check Alcotest.int "digit 1 (b=1)" 0 (Id.digit ~b:1 i 1);
  check Alcotest.int "digit 0 (b=2)" 2 (Id.digit ~b:2 i 0)

let shared_prefix_manual () =
  let a = Id.of_hex ~width:128 "abcd0000000000000000000000000000" in
  let b = Id.of_hex ~width:128 "abce0000000000000000000000000000" in
  check Alcotest.int "b=4 prefix" 3 (Id.shared_prefix_digits ~b:4 a b);
  check Alcotest.int "b=8 prefix" 1 (Id.shared_prefix_digits ~b:8 a b);
  check Alcotest.int "self prefix" 32 (Id.shared_prefix_digits ~b:4 a a)

let distance_symmetric () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let a = Id.random rng ~width:128 and b = Id.random rng ~width:128 in
    check Alcotest.bool "sym" true (Nat.equal (Id.distance a b) (Id.distance b a))
  done

let distance_wraps () =
  let zero = Id.zero ~width:128 in
  let maxid = Id.max_id ~width:128 in
  check Alcotest.bool "max is adjacent to zero" true (Nat.equal (Id.distance zero maxid) Nat.one)

let cw_plus_ccw () =
  (* cw(a,b) + cw(b,a) = 2^128 for distinct ids. *)
  let rng = Rng.create 4 in
  let modulus = Nat.shift_left Nat.one 128 in
  for _ = 1 to 100 do
    let a = Id.random rng ~width:128 and b = Id.random rng ~width:128 in
    if not (Id.equal a b) then
      check Alcotest.bool "cw + ccw = 2^128" true
        (Nat.equal (Nat.add (Id.cw_distance a b) (Id.cw_distance b a)) modulus)
  done

let add_int_wraps () =
  let maxid = Id.max_id ~width:128 in
  check id_t "max + 1 = 0" (Id.zero ~width:128) (Id.add_int maxid 1);
  check id_t "0 - 1 = max" maxid (Id.add_int (Id.zero ~width:128) (-1));
  let rng = Rng.create 5 in
  let a = Id.random rng ~width:128 in
  check id_t "+5 -5" a (Id.add_int (Id.add_int a 5) (-5))

let is_between_cw_cases () =
  let i n = Id.add_int (Id.zero ~width:128) n in
  check Alcotest.bool "10 in [5,20)" true (Id.is_between_cw (i 5) (i 10) (i 20));
  check Alcotest.bool "5 in [5,20)" true (Id.is_between_cw (i 5) (i 5) (i 20));
  check Alcotest.bool "20 not in [5,20)" false (Id.is_between_cw (i 5) (i 20) (i 20));
  (* wrap-around arc *)
  check Alcotest.bool "2 in [max-5, 10)" true
    (Id.is_between_cw (Id.add_int (i 0) (-5)) (i 2) (i 10));
  check Alcotest.bool "50 not in wrap arc" false
    (Id.is_between_cw (Id.add_int (i 0) (-5)) (i 50) (i 10))

let closer_prefers_closest () =
  let i n = Id.add_int (Id.zero ~width:128) n in
  check Alcotest.bool "closer" true (Id.closer ~target:(i 100) (i 99) (i 110) < 0);
  check Alcotest.bool "farther" true (Id.closer ~target:(i 100) (i 150) (i 110) > 0);
  check Alcotest.bool "equal ids" true (Id.closer ~target:(i 100) (i 99) (i 99) = 0);
  (* wrap: max is closer to 0 than 3 is *)
  check Alcotest.bool "wrap closer" true
    (Id.closer ~target:(i 0) (Id.max_id ~width:128) (i 3) < 0)

let file_id_functions () =
  let rng = Rng.create 6 in
  let kp = Past_crypto.Rsa.generate rng ~bits:128 in
  let f1 = Id.file_id ~name:"a.txt" ~owner:kp.Past_crypto.Rsa.pub ~salt:"s1" in
  let f2 = Id.file_id ~name:"a.txt" ~owner:kp.Past_crypto.Rsa.pub ~salt:"s2" in
  check Alcotest.int "160 bits" 160 (Id.bits f1);
  check Alcotest.bool "salt changes id" false (Id.equal f1 f2);
  let p = Id.prefix_of_file_id f1 in
  check Alcotest.int "prefix 128 bits" 128 (Id.bits p);
  check Alcotest.string "prefix is msbs" (String.sub (Id.to_hex f1) 0 32) (Id.to_hex p)

let node_id_of_key_width () =
  check Alcotest.int "128 bits" 128 (Id.bits (Id.node_id_of_key "somekey"))

let map_set_table () =
  let rng = Rng.create 7 in
  let ids = List.init 20 (fun _ -> Id.random rng ~width:128) in
  let set = Id.Set.of_list ids in
  check Alcotest.int "set size" 20 (Id.Set.cardinal set);
  let tbl = Id.Table.create 16 in
  List.iteri (fun i id -> Id.Table.replace tbl id i) ids;
  check Alcotest.int "table size" 20 (Id.Table.length tbl);
  let m = List.fold_left (fun m id -> Id.Map.add id () m) Id.Map.empty ids in
  check Alcotest.int "map size" 20 (Id.Map.cardinal m)

let width_mismatch_raises () =
  let a = Id.zero ~width:128 and b = Id.zero ~width:160 in
  Alcotest.check_raises "compare" (Invalid_argument "Id.compare: width mismatch (128 vs 160 bits)")
    (fun () -> ignore (Id.compare a b))

(* A negative index used to wrap into a valid byte and slot (b = 4,
   i = -1 read byte 0 with shift 8) and return 0, or to raise String's
   generic error. Each error names the offending value. *)
let digit_errors_name_values () =
  let ones = Id.max_id ~width:128 in
  let raises (b, i, digits) =
    Alcotest.check_raises
      (Printf.sprintf "b=%d i=%d" b i)
      (Invalid_argument
         (Printf.sprintf "Id.digit: index %d out of range for b = %d (%d digits)" i b digits))
      (fun () -> ignore (Id.digit ~b ones i))
  in
  List.iter raises
    [ (4, -1, 32); (2, -3, 64); (1, -7, 128); (4, -2, 32); (4, 32, 32); (8, 16, 16) ];
  Alcotest.check_raises "digit b" (Invalid_argument "Id.digit: b must be 1, 2, 4 or 8 (got 3)")
    (fun () -> ignore (Id.digit ~b:3 ones 0));
  Alcotest.check_raises "shared prefix b"
    (Invalid_argument "Id.shared_prefix_digits: b must be 1, 2, 4 or 8 (got 16)") (fun () ->
      ignore (Id.shared_prefix_digits ~b:16 ones ones));
  check Alcotest.int "last digit" 0xf (Id.digit ~b:4 ones 31)

(* qcheck: fast byte-key paths agree with the Nat reference
   implementations. *)

let qcheck_cw_key_matches_nat =
  QCheck.Test.make ~name:"cw_dist_key = cw_distance" ~count:500 arb_pair (fun (a, b) ->
      Nat.equal (Nat.of_bytes_be (Bytes.of_string (Id.cw_dist_key a b))) (Id.cw_distance a b))

let qcheck_ring_key_matches_nat =
  QCheck.Test.make ~name:"ring_dist_key = distance" ~count:500 arb_pair (fun (a, b) ->
      Nat.equal (Nat.of_bytes_be (Bytes.of_string (Id.ring_dist_key a b))) (Id.distance a b))

let qcheck_closer_matches_nat =
  QCheck.Test.make ~name:"closer consistent with Nat distances" ~count:500
    (QCheck.triple arb_id arb_id arb_id)
    (fun (t, x, y) ->
      let fast = Id.closer ~target:t x y in
      let dx = Id.distance t x and dy = Id.distance t y in
      let slow =
        let c = Nat.compare dx dy in
        if c <> 0 then c else Id.compare x y
      in
      compare fast 0 = compare slow 0)

let qcheck_le_sum =
  QCheck.Test.make ~name:"dist_key_le_sum = Nat inequality" ~count:500
    (QCheck.triple arb_id arb_id arb_id)
    (fun (a, b, c) ->
      let ka = Id.ring_dist_key a b and kb = Id.ring_dist_key b c and kd = Id.ring_dist_key a c in
      let na = Id.distance a b and nb = Id.distance b c and nd = Id.distance a c in
      Id.dist_key_le_sum kd ka kb = (Nat.compare nd (Nat.add na nb) <= 0))

(* [i] with its top bit flipped, i.e. i + 2^(bits-1) mod 2^bits — the
   point where a clockwise distance is its own two's-complement
   negation, which stresses the min(e, -e) branch of the fast paths. *)
let flip_top_bit i =
  let w = Id.bits i in
  let h = Id.to_hex i in
  let b0 = int_of_string ("0x" ^ String.sub h 0 2) lxor 0x80 in
  Id.of_hex ~width:w (Printf.sprintf "%02x%s" b0 (String.sub h 2 (String.length h - 2)))

(* Fast [Id.closer] against the Nat-based oracle on crafted inputs:
   ring wraparound around 0/2^w, exact equal-distance ties (t±d),
   the 0x80… self-negation point, x = target, and widths covering both
   the packed-int fast path and (at 256 bits) the wide fallback. *)
let adversarial_closer () =
  List.iter
    (fun width ->
      let rng = Rng.create 7 in
      let zero = Id.zero ~width and maxid = Id.max_id ~width in
      for _ = 1 to 25 do
        let t = Id.random rng ~width in
        List.iter
          (fun d ->
            let cases =
              [
                (t, Id.add_int t d, Id.add_int t (-d));
                (t, Id.add_int t (-d), Id.add_int t d);
                (zero, maxid, Id.add_int zero d);
                (zero, Id.add_int zero (-d), Id.add_int zero d);
                (maxid, zero, Id.add_int maxid (-d));
                (t, flip_top_bit t, Id.add_int t d);
                (t, flip_top_bit t, t);
                (t, t, Id.add_int t d);
                (Id.add_int t d, t, flip_top_bit t);
              ]
            in
            List.iter
              (fun (target, x, y) ->
                check Alcotest.int
                  (Printf.sprintf "w=%d d=%d closer(%s; %s, %s)" width d (Id.short target)
                     (Id.short x) (Id.short y))
                  (compare (Id.closer_oracle ~target x y) 0)
                  (compare (Id.closer ~target x y) 0))
              cases)
          [ 1; 2; 255; 256; 65535 ]
      done)
    [ 128; 160; 256 ]

let qcheck_closer_oracle_wide =
  (* 256-bit ids exceed the packed-mask budget, forcing the string-key
     fallback inside [closer]; the oracle must still agree. *)
  QCheck.Test.make ~name:"closer = oracle (256-bit fallback)" ~count:300
    (QCheck.triple (QCheck.make ~print:Id.to_hex (gen_id 256))
       (QCheck.make ~print:Id.to_hex (gen_id 256))
       (QCheck.make ~print:Id.to_hex (gen_id 256)))
    (fun (t, x, y) ->
      compare (Id.closer ~target:t x y) 0 = compare (Id.closer_oracle ~target:t x y) 0)

(* Reference repack of a full distance key's leading bytes, used to pin
   down the allocation-free hi7 variants. *)
let hi_of_key d =
  let k = Stdlib.min 7 (String.length d) in
  let v = ref 0 in
  for i = 0 to k - 1 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v

let qcheck_hi7_matches_keys =
  QCheck.Test.make ~name:"cw/ring hi7 = packed key prefix" ~count:500 arb_pair (fun (a, b) ->
      Id.cw_dist_hi7 a b = hi_of_key (Id.cw_dist_key a b)
      && Id.ring_dist_hi7 a b = hi_of_key (Id.ring_dist_key a b))

let adversarial_hi7 () =
  (* Adjacent ids (borrow chains through the suffix), top-bit flips
     (zero suffix, so negation carries into the packed bytes), and
     widths at / below the 7-byte pack. *)
  List.iter
    (fun width ->
      let rng = Rng.create 11 in
      for _ = 1 to 50 do
        let t = Id.random rng ~width in
        let others =
          [ Id.add_int t 1; Id.add_int t (-1); Id.add_int t 256; flip_top_bit t;
            Id.add_int (flip_top_bit t) 1; Id.zero ~width; Id.max_id ~width ]
        in
        List.iter
          (fun x ->
            check Alcotest.int
              (Printf.sprintf "w=%d cw_hi7 %s %s" width (Id.short t) (Id.short x))
              (hi_of_key (Id.cw_dist_key t x))
              (Id.cw_dist_hi7 t x);
            check Alcotest.int
              (Printf.sprintf "w=%d ring_hi7 %s %s" width (Id.short t) (Id.short x))
              (hi_of_key (Id.ring_dist_key t x))
              (Id.ring_dist_hi7 t x))
          others
      done)
    [ 16; 56; 64; 128; 160 ]

let qcheck_prefix_symmetric =
  QCheck.Test.make ~name:"shared prefix symmetric" ~count:300 arb_pair (fun (a, b) ->
      Id.shared_prefix_digits ~b:4 a b = Id.shared_prefix_digits ~b:4 b a)

let qcheck_digit_reassembly =
  QCheck.Test.make ~name:"digits reassemble hex (b=4)" ~count:300 arb_id (fun a ->
      let hex =
        String.concat ""
          (List.init 32 (fun i -> Printf.sprintf "%x" (Id.digit ~b:4 a i)))
      in
      String.equal hex (Id.to_hex a))

(* Digit-by-digit reference for [shared_prefix_digits]. *)
let prefix_oracle ~b x y =
  let n = Id.bits x / b in
  let rec go i = if i < n && Id.digit ~b x i = Id.digit ~b y i then go (i + 1) else i in
  go 0

let flip_bit id j =
  let s = Id.to_bytes id in
  Bytes.set s (j / 8) (Char.chr (Char.code (Bytes.get s (j / 8)) lxor (0x80 lsr (j mod 8))));
  Id.of_bytes s

(* Random pairs, equal ids, and every single-bit difference: a pair
   that first differs at bit j shares exactly j / b digits. *)
let qcheck_prefix_oracle =
  QCheck.Test.make ~name:"shared prefix = digit-by-digit oracle" ~count:100
    (QCheck.triple arb_id arb_id (QCheck.make ~print:Id.to_hex (gen_id 160)))
    (fun (x, y, w) ->
      List.for_all
        (fun b ->
          let agrees a c = Id.shared_prefix_digits ~b a c = prefix_oracle ~b a c in
          let flips a =
            List.for_all
              (fun j ->
                let c = flip_bit a j in
                agrees a c && Id.shared_prefix_digits ~b a c = j / b)
              (List.init (Id.bits a) Fun.id)
          in
          agrees x y && agrees x x && agrees w w && flips x && flips w)
        [ 1; 2; 4; 8 ])

let suite =
  ( "id",
    [
      "widths" => widths;
      "hex roundtrip" => hex_roundtrip;
      "of_hex pads" => of_hex_pads;
      "digit extraction" => digits_manual;
      "shared prefix" => shared_prefix_manual;
      "distance symmetric" => distance_symmetric;
      "distance wraps" => distance_wraps;
      "cw + ccw = 2^128" => cw_plus_ccw;
      "add_int wraps" => add_int_wraps;
      "is_between_cw" => is_between_cw_cases;
      "closer" => closer_prefers_closest;
      "file id derivation" => file_id_functions;
      "node id width" => node_id_of_key_width;
      "map/set/table" => map_set_table;
      "width mismatch raises" => width_mismatch_raises;
      "digit errors name their values" => digit_errors_name_values;
      QCheck_alcotest.to_alcotest qcheck_cw_key_matches_nat;
      QCheck_alcotest.to_alcotest qcheck_ring_key_matches_nat;
      QCheck_alcotest.to_alcotest qcheck_closer_matches_nat;
      "closer vs oracle, adversarial ids" => adversarial_closer;
      QCheck_alcotest.to_alcotest qcheck_closer_oracle_wide;
      QCheck_alcotest.to_alcotest qcheck_hi7_matches_keys;
      "dist hi7 vs keys, adversarial ids" => adversarial_hi7;
      QCheck_alcotest.to_alcotest qcheck_le_sum;
      QCheck_alcotest.to_alcotest qcheck_prefix_symmetric;
      QCheck_alcotest.to_alcotest qcheck_prefix_oracle;
      QCheck_alcotest.to_alcotest qcheck_digit_reassembly;
    ] )
