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

(* The big-integer oracle itself: symmetry, wraparound, cw + ccw. *)
let distance_symmetric () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let a = Id.random rng ~width:128 and b = Id.random rng ~width:128 in
    check Alcotest.bool "sym" true (Nat.equal (Id_oracle.distance a b) (Id_oracle.distance b a))
  done

let distance_wraps () =
  let zero = Id.zero ~width:128 in
  let maxid = Id.max_id ~width:128 in
  check Alcotest.bool "max is adjacent to zero" true
    (Nat.equal (Id_oracle.distance zero maxid) Nat.one)

let cw_plus_ccw () =
  (* cw(a,b) + cw(b,a) = 2^128 for distinct ids. *)
  let rng = Rng.create 4 in
  let modulus = Nat.shift_left Nat.one 128 in
  for _ = 1 to 100 do
    let a = Id.random rng ~width:128 and b = Id.random rng ~width:128 in
    if not (Id.equal a b) then
      check Alcotest.bool "cw + ccw = 2^128" true
        (Nat.equal (Nat.add (Id_oracle.cw_distance a b) (Id_oracle.cw_distance b a)) modulus)
  done

let add_int_wraps () =
  let maxid = Id.max_id ~width:128 in
  check id_t "max + 1 = 0" (Id.zero ~width:128) (Id_oracle.add_int maxid 1);
  check id_t "0 - 1 = max" maxid (Id_oracle.add_int (Id.zero ~width:128) (-1));
  let rng = Rng.create 5 in
  let a = Id.random rng ~width:128 in
  check id_t "+5 -5" a (Id_oracle.add_int (Id_oracle.add_int a 5) (-5))

let is_between_cw_cases () =
  let i n = Id_oracle.add_int (Id.zero ~width:128) n in
  let between = Id_oracle.is_between_cw in
  check Alcotest.bool "10 in [5,20)" true (between (i 5) (i 10) (i 20));
  check Alcotest.bool "5 in [5,20)" true (between (i 5) (i 5) (i 20));
  check Alcotest.bool "20 not in [5,20)" false (between (i 5) (i 20) (i 20));
  (* wrap-around arc *)
  check Alcotest.bool "2 in [max-5, 10)" true (between (i (-5)) (i 2) (i 10));
  check Alcotest.bool "50 not in wrap arc" false (between (i (-5)) (i 50) (i 10))

let closer_prefers_closest () =
  let i n = Id_oracle.add_int (Id.zero ~width:128) n in
  check Alcotest.bool "closer" true (Id.closer ~target:(i 100) (i 99) (i 110) < 0);
  check Alcotest.bool "farther" true (Id.closer ~target:(i 100) (i 150) (i 110) > 0);
  check Alcotest.bool "equal ids" true (Id.closer ~target:(i 100) (i 99) (i 99) = 0);
  (* wrap: max is closer to 0 than 3 is *)
  check Alcotest.bool "wrap closer" true
    (Id.closer ~target:(i 0) (Id.max_id ~width:128) (i 3) < 0);
  (* a tie in distance goes to the numerically smaller id *)
  check Alcotest.bool "tie by id" true (Id.closer ~target:(i 100) (i 90) (i 110) < 0);
  check Alcotest.bool "cw from 100: 110 before 90" true
    (Id.cw_compare ~from:(i 100) (i 110) (i 90) < 0);
  check Alcotest.int "cw equal ids" 0 (Id.cw_compare ~from:(i 100) (i 90) (i 90))

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

(* Width errors name the value they got. The routing comparisons take
   128-bit ids only, and name the first operand of another width. *)
let width_errors_name_values () =
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "zero" "Id.zero: width must be a positive multiple of 8 (got 12)" (fun () ->
      Id.zero ~width:12);
  raises "max_id" "Id.max_id: width must be a positive multiple of 8 (got 0)" (fun () ->
      Id.max_id ~width:0);
  raises "of_hex width" "Id.of_hex: width must be a positive multiple of 8 (got -8)" (fun () ->
      Id.of_hex ~width:(-8) "ff");
  raises "random" "Id.random: width must be a positive multiple of 8 (got 7)" (fun () ->
      Id.random (Rng.create 1) ~width:7);
  raises "of_hex fit" "Id.of_hex: value exceeds width (3 hex digits for 8 bits)" (fun () ->
      Id.of_hex ~width:8 "1ff");
  raises "prefix" "Id.prefix_of_file_id: id too short (64 bits, need 128)" (fun () ->
      Id.prefix_of_file_id (Id.zero ~width:64));
  let n = Id.zero ~width:128 and f = Id.zero ~width:160 and w = Id.zero ~width:256 in
  raises "closer target" "Id.closer: routing ids are 128 bits (got 160)" (fun () ->
      Id.closer ~target:f n n);
  raises "closer x" "Id.closer: routing ids are 128 bits (got 256)" (fun () ->
      Id.closer ~target:n w f);
  raises "closer y" "Id.closer: routing ids are 128 bits (got 160)" (fun () ->
      Id.closer ~target:n n f);
  raises "cw_compare from" "Id.cw_compare: routing ids are 128 bits (got 256)" (fun () ->
      Id.cw_compare ~from:w n n);
  raises "cw_compare y" "Id.cw_compare: routing ids are 128 bits (got 160)" (fun () ->
      Id.cw_compare ~from:n n f)

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

(* qcheck: the two-word comparisons agree with the big-integer
   oracle. *)

let arb_triple = QCheck.triple arb_id arb_id arb_id
let sign c = compare c 0

let qcheck_cw_compare_matches_nat =
  QCheck.Test.make ~name:"cw_compare = cw_distance order" ~count:500 arb_triple (fun (f, x, y) ->
      sign (Id.cw_compare ~from:f x y) = sign (Id_oracle.cw_compare ~from:f x y)
      && sign (Id.cw_compare ~from:f x x) = 0
      && sign (Id.cw_compare ~from:f f x) = sign (Id_oracle.cw_compare ~from:f f x))

let qcheck_closer_matches_nat =
  QCheck.Test.make ~name:"closer consistent with Nat distances" ~count:500 arb_triple
    (fun (t, x, y) -> sign (Id.closer ~target:t x y) = sign (Id_oracle.closer ~target:t x y))

(* [t + d] and [t - d] for a random 128-bit offset [d]: equal ring
   distances, so the id order decides. *)
let qcheck_closer_ties =
  QCheck.Test.make ~name:"closer = oracle on t+-d ties" ~count:500 arb_pair (fun (t, d) ->
      let nt = Id_oracle.to_nat t and nd = Id_oracle.to_nat d in
      let x = Id_oracle.of_nat ~width:128 (Nat.add nt nd)
      and y = Id_oracle.of_nat ~width:128 (Nat.sub (Nat.add nt (Nat.shift_left Nat.one 128)) nd) in
      sign (Id.closer ~target:t x y) = sign (Id_oracle.closer ~target:t x y)
      && sign (Id.closer ~target:t y x) = sign (Id_oracle.closer ~target:t y x))

(* [i] with its top bit flipped, i.e. i + 2^127 — the point where a
   clockwise distance is its own two's-complement negation, which
   stresses the min(e, -e) branch. *)
let flip_top_bit i =
  let h = Id.to_hex i in
  let b0 = int_of_string ("0x" ^ String.sub h 0 2) lxor 0x80 in
  Id.of_hex ~width:128 (Printf.sprintf "%02x%s" b0 (String.sub h 2 (String.length h - 2)))

(* Offsets that borrow out of the low word (1, 255, 2^32), that fill
   it (max_int), and that stay in it. *)
let offsets = [ 1; 2; 255; 256; 65535; 1 lsl 32; max_int ]

(* [id + d * 2^64]: an offset that leaves the low word alone, so a
   distance made of it has a zero low word and its negation carries
   into the high word. *)
let add_hi id d =
  let off = Nat.shift_left (Nat.of_int (abs d)) 64 and n = Id_oracle.to_nat id in
  Id_oracle.of_nat ~width:128
    (if d >= 0 then Nat.add n off else Nat.sub (Nat.add n (Nat.shift_left Nat.one 128)) off)

(* [Id.closer] against the oracle on crafted inputs: ring wraparound
   around 0/2^128, exact equal-distance ties (t±d), the 0x80…
   self-negation point, x = target, and distances whose low word is 0. *)
let adversarial_closer () =
  let rng = Rng.create 7 in
  let zero = Id.zero ~width:128 and maxid = Id.max_id ~width:128 in
  let add = Id_oracle.add_int in
  for _ = 1 to 25 do
    let t = Id.random rng ~width:128 in
    List.iter
      (fun d ->
        let cases =
          [
            (t, add t d, add t (-d));
            (t, add t (-d), add t d);
            (t, add_hi t (-d), add_hi t d);
            (t, add_hi t d, add_hi t (-d));
            (t, add_hi t (-d), add t 1);
            (t, add t 1, add_hi t (-d));
            (t, add_hi t (-d), add_hi (add t (-1)) (-d));
            (zero, maxid, add zero d);
            (zero, add zero (-d), add zero d);
            (maxid, zero, add maxid (-d));
            (t, flip_top_bit t, add t d);
            (t, flip_top_bit t, t);
            (t, t, add t d);
            (add t d, t, flip_top_bit t);
            (t, add (flip_top_bit t) d, add (flip_top_bit t) (-d));
          ]
        in
        List.iter
          (fun (target, x, y) ->
            check Alcotest.int
              (Printf.sprintf "d=%d closer(%s; %s, %s)" d (Id.short target) (Id.short x)
                 (Id.short y))
              (sign (Id_oracle.closer ~target x y))
              (sign (Id.closer ~target x y)))
          cases)
      offsets
  done

(* [Id.cw_compare] against the oracle from a random origin to its
   neighbours, across the top-bit flip, and to 0 and the maximum id:
   borrows through the low word and out of the high one. *)
let adversarial_cw_compare () =
  let rng = Rng.create 11 in
  let add = Id_oracle.add_int in
  for _ = 1 to 50 do
    let f = Id.random rng ~width:128 in
    let others =
      f :: flip_top_bit f :: Id.zero ~width:128 :: Id.max_id ~width:128
      :: List.concat_map
           (fun d -> [ add f d; add f (-d); add (flip_top_bit f) d; add_hi f d; add_hi f (-d) ])
           offsets
    in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            check Alcotest.int
              (Printf.sprintf "cw_compare(%s; %s, %s)" (Id.short f) (Id.short x) (Id.short y))
              (sign (Id_oracle.cw_compare ~from:f x y))
              (sign (Id.cw_compare ~from:f x y)))
          others)
      others
  done

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
      "width errors name their values" => width_errors_name_values;
      "digit errors name their values" => digit_errors_name_values;
      QCheck_alcotest.to_alcotest qcheck_cw_compare_matches_nat;
      QCheck_alcotest.to_alcotest qcheck_closer_ties;
      QCheck_alcotest.to_alcotest qcheck_closer_matches_nat;
      "closer vs oracle, adversarial ids" => adversarial_closer;
      "cw_compare vs oracle, adversarial ids" => adversarial_cw_compare;
      QCheck_alcotest.to_alcotest qcheck_prefix_symmetric;
      QCheck_alcotest.to_alcotest qcheck_prefix_oracle;
      QCheck_alcotest.to_alcotest qcheck_digit_reassembly;
    ] )
