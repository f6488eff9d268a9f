module Rng = Past_stdext.Rng

(* Little-endian limbs in base 2^26, normalized: no most-significant zero
   limb. 26-bit limbs keep every intermediate product (limb*limb + two
   carries < 2^53) comfortably inside OCaml's 63-bit native int. *)

let base_bits = 26
let base = 1 lsl base_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int x =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs x = if x = 0 then [] else (x land mask) :: limbs (x lsr base_bits) in
  Array.of_list (limbs x)

let one = of_int 1
let two = of_int 2

let to_int (a : t) =
  let n = Array.length a in
  if n * base_bits > 62 && n > 0 then begin
    (* May still fit; check leading limbs. *)
    let bits_used = ref 0 in
    for i = n - 1 downto 0 do
      if !bits_used = 0 && a.(i) <> 0 then begin
        let top = ref a.(i) and b = ref 0 in
        while !top > 0 do
          incr b;
          top := !top lsr 1
        done;
        bits_used := (i * base_bits) + !b
      end
    done;
    if !bits_used > 62 then failwith "Nat.to_int: too large"
  end;
  let acc = ref 0 in
  for i = n - 1 downto 0 do
    acc := (!acc lsl base_bits) lor a.(i)
  done;
  !acc

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let equal a b = compare a b = 0
let is_even (a : t) = Array.length a = 0 || a.(0) land 1 = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land mask;
        carry := cur lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land mask;
        carry := cur lsr base_bits;
        incr k
      done
    done;
    normalize r
  end

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = ref a.(n - 1) and b = ref 0 in
    while !top > 0 do
      incr b;
      top := !top lsr 1
    done;
    ((n - 1) * base_bits) + !b
  end

let shift_left (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- v lsr base_bits
    done;
    normalize r
  end

let shift_right (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let testbit (a : t) i =
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

let logxor (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    r.(i) <- ai lxor bi
  done;
  normalize r

(* Knuth TAOCP vol 2, Algorithm D, adapted to base 2^26. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Single-limb divisor: simple long division. *)
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl base_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (normalize q, of_int !r)
  end
  else begin
    (* Normalize so the divisor's top limb has its high bit set. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let s = ref 0 and v = ref top in
      while !v < base / 2 do
        incr s;
        v := !v lsl 1
      done;
      !s
    in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    if m < 0 then (zero, a)
    else begin
      (* Work in a mutable copy of u with one extra high limb. *)
      let w = Array.make (Array.length u + 1) 0 in
      Array.blit u 0 w 0 (Array.length u);
      let q = Array.make (m + 1) 0 in
      let v1 = v.(n - 1) in
      let v2 = if n >= 2 then v.(n - 2) else 0 in
      for j = m downto 0 do
        (* Estimate the quotient digit from the top two limbs. *)
        let num = (w.(j + n) lsl base_bits) lor w.(j + n - 1) in
        let qhat = ref (num / v1) in
        let rhat = ref (num mod v1) in
        if !qhat >= base then begin
          qhat := base - 1;
          rhat := num - (!qhat * v1)
        end;
        let continue = ref true in
        while !continue && !rhat < base do
          let lhs = !qhat * v2 in
          let rhs = (!rhat lsl base_bits) lor (if j + n - 2 >= 0 then w.(j + n - 2) else 0) in
          if lhs > rhs then begin
            decr qhat;
            rhat := !rhat + v1
          end
          else continue := false
        done;
        (* Multiply-subtract; correct with an add-back if we overshot. *)
        let borrow = ref 0 and carry = ref 0 in
        for i = 0 to n - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr base_bits;
          let d = w.(j + i) - (p land mask) - !borrow in
          if d < 0 then begin
            w.(j + i) <- d + base;
            borrow := 1
          end
          else begin
            w.(j + i) <- d;
            borrow := 0
          end
        done;
        let d = w.(j + n) - !carry - !borrow in
        if d < 0 then begin
          (* Overshot by one: add the divisor back. *)
          w.(j + n) <- d + base;
          decr qhat;
          let c = ref 0 in
          for i = 0 to n - 1 do
            let s = w.(j + i) + v.(i) + !c in
            w.(j + i) <- s land mask;
            c := s lsr base_bits
          done;
          w.(j + n) <- (w.(j + n) + !c) land mask
        end
        else w.(j + n) <- d;
        q.(j) <- !qhat
      done;
      let r = normalize (Array.sub w 0 n) in
      (normalize q, shift_right r shift)
    end
  end

let rem a b = snd (divmod a b)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_hex: bad digit"

let of_hex s =
  let acc = ref zero in
  String.iter
    (fun c ->
      if c <> '_' then acc := add (shift_left !acc 4) (of_int (hex_digit c)))
    s;
  !acc

let to_hex (a : t) =
  if is_zero a then "0"
  else begin
    let bits = num_bits a in
    let digits = (bits + 3) / 4 in
    let buf = Buffer.create digits in
    for i = digits - 1 downto 0 do
      let nibble =
        ((if testbit a ((4 * i) + 3) then 8 else 0)
        lor (if testbit a ((4 * i) + 2) then 4 else 0)
        lor (if testbit a ((4 * i) + 1) then 2 else 0)
        lor if testbit a (4 * i) then 1 else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[nibble]
    done;
    Buffer.contents buf
  end

let to_bytes_be ?width (a : t) =
  let nbytes = Stdlib.max 1 ((num_bits a + 7) / 8) in
  let width =
    match width with
    | None -> nbytes
    | Some w ->
      if w < nbytes then invalid_arg "Nat.to_bytes_be: width too small";
      w
  in
  let b = Bytes.make width '\000' in
  let v = ref a in
  let i = ref (width - 1) in
  while not (is_zero !v) do
    let q, r = divmod !v (of_int 256) in
    Bytes.set b !i (Char.chr (to_int r));
    v := q;
    decr i
  done;
  b

let of_bytes_be b =
  let acc = ref zero in
  Bytes.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) b;
  !acc

let to_string (a : t) =
  if is_zero a then "0"
  else begin
    let ten = of_int 10 in
    let buf = Buffer.create 32 in
    let v = ref a in
    while not (is_zero !v) do
      let q, r = divmod !v ten in
      Buffer.add_char buf (Char.chr (Char.code '0' + to_int r));
      v := q
    done;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

(* --- modular exponentiation --------------------------------------------- *)

(* The exponent's 4-bit windows, least significant first. *)
let nibbles_of (e : t) =
  let bits = num_bits e in
  let count = (bits + 3) / 4 in
  Array.init count (fun i ->
      (if testbit e (4 * i) then 1 else 0)
      lor (if testbit e ((4 * i) + 1) then 2 else 0)
      lor (if testbit e ((4 * i) + 2) then 4 else 0)
      lor if testbit e ((4 * i) + 3) then 8 else 0)

(* Montgomery arithmetic for an odd modulus m of n limbs, with
   R = base^n: redc maps t < m*R to t*R^-1 mod m without any division,
   so each modular multiplication costs two schoolbook products instead
   of a product plus a Knuth division. *)
module Mont = struct
  type ctx = { m : t; n : int; m' : int (* -m[0]^-1 mod base *) }

  let make m =
    let n = Array.length m in
    (* 2-adic Newton iteration: x := x(2 - m0*x) doubles the number of
       correct low bits; x0 = m0 is already correct mod 8 for odd m0. *)
    let m0 = m.(0) in
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x land mask)) land mask
    done;
    { m; n; m' = base - !x }

  (* In-place reduction of t (length 2n+1, value < m*R): returns
     t*R^-1 mod m, canonical (< m). *)
  let redc ctx (t : int array) =
    let m = ctx.m and n = ctx.n in
    for i = 0 to n - 1 do
      let u = t.(i) * ctx.m' land mask in
      let carry = ref 0 in
      for j = 0 to n - 1 do
        let x = t.(i + j) + (u * m.(j)) + !carry in
        t.(i + j) <- x land mask;
        carry := x lsr base_bits
      done;
      let k = ref (i + n) in
      while !carry <> 0 do
        let x = t.(!k) + !carry in
        t.(!k) <- x land mask;
        carry := x lsr base_bits;
        incr k
      done
    done;
    let r = normalize (Array.sub t n (n + 1)) in
    if compare r m >= 0 then sub r m else r

  let mul_redc ctx a b =
    let p = mul a b in
    let t = Array.make ((2 * ctx.n) + 1) 0 in
    Array.blit p 0 t 0 (Array.length p);
    redc ctx t

  let to_mont ctx x = rem (shift_left x (ctx.n * base_bits)) ctx.m

  let of_mont ctx x =
    let t = Array.make ((2 * ctx.n) + 1) 0 in
    Array.blit x 0 t 0 (Array.length x);
    redc ctx t
end

(* 4-bit fixed-window exponentiation: precompute b^0..b^15 mod m, then
   per exponent nibble (most significant first) square four times and
   multiply by the table entry — at most one multiply per four exponent
   bits instead of the expected two of bit-at-a-time square-and-multiply.
   Odd moduli (every RSA modulus) additionally use Montgomery
   multiplication, replacing each Knuth division with a second cheap
   schoolbook pass. *)
let mod_pow b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let nib = nibbles_of e in
    let count = Array.length nib in
    if count = 0 then one
    else begin
      let b = rem b m in
      if not (is_even m) then begin
        let ctx = Mont.make m in
        let one_m = Mont.to_mont ctx one in
        let pow = Array.make 16 one_m in
        pow.(1) <- Mont.to_mont ctx b;
        for i = 2 to 15 do
          pow.(i) <- Mont.mul_redc ctx pow.(i - 1) pow.(1)
        done;
        let result = ref pow.(nib.(count - 1)) in
        for j = count - 2 downto 0 do
          for _ = 1 to 4 do
            result := Mont.mul_redc ctx !result !result
          done;
          if nib.(j) <> 0 then result := Mont.mul_redc ctx !result pow.(nib.(j))
        done;
        Mont.of_mont ctx !result
      end
      else begin
        let pow = Array.make 16 one in
        pow.(1) <- b;
        for i = 2 to 15 do
          pow.(i) <- rem (mul pow.(i - 1) b) m
        done;
        let result = ref pow.(nib.(count - 1)) in
        for j = count - 2 downto 0 do
          for _ = 1 to 4 do
            result := rem (mul !result !result) m
          done;
          if nib.(j) <> 0 then result := rem (mul !result pow.(nib.(j))) m
        done;
        !result
      end
    end
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Extended Euclid over signed pairs represented as (sign, nat). *)
let mod_inv a m =
  if is_zero m then invalid_arg "Nat.mod_inv: zero modulus";
  let a = rem a m in
  if is_zero a then None
  else begin
    (* Track x where old_r = x*a (mod m), with sign handled explicitly. *)
    let rec go old_r r old_x old_x_neg x x_neg =
      if is_zero r then
        if equal old_r one then
          Some (if old_x_neg then sub m (rem old_x m) |> fun v -> if equal v m then zero else v else rem old_x m)
        else None
      else begin
        let q, rest = divmod old_r r in
        (* new_x = old_x - q * x, with signs. *)
        let qx = mul q x in
        let new_x, new_x_neg =
          if old_x_neg = x_neg then
            if compare old_x qx >= 0 then (sub old_x qx, old_x_neg) else (sub qx old_x, not old_x_neg)
          else (add old_x qx, old_x_neg)
        in
        go r rest x x_neg new_x new_x_neg
      end
    in
    go a m one false zero false
  end

let random_bits rng bits =
  if bits < 0 then invalid_arg "Nat.random_bits: negative";
  if bits = 0 then zero
  else begin
    let limbs = (bits + base_bits - 1) / base_bits in
    let r = Array.make limbs 0 in
    for i = 0 to limbs - 1 do
      r.(i) <- Rng.int rng base
    done;
    let excess = (limbs * base_bits) - bits in
    r.(limbs - 1) <- r.(limbs - 1) land (mask lsr excess);
    normalize r
  end

let random_below rng n =
  if is_zero n then invalid_arg "Nat.random_below: zero bound";
  let bits = num_bits n in
  let rec draw () =
    let candidate = random_bits rng bits in
    if compare candidate n < 0 then candidate else draw ()
  in
  draw ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89;
    97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149; 151; 157; 163; 167; 173; 179; 181; 191;
    193; 197; 199; 211; 223; 227; 229; 233; 239; 241; 251 ]

let is_probable_prime rng n =
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else begin
    let small_factor =
      List.exists
        (fun p ->
          let p = of_int p in
          compare p n < 0 && is_zero (rem n p))
        small_primes
    in
    let is_small_prime = List.exists (fun p -> equal n (of_int p)) small_primes in
    if is_small_prime then true
    else if small_factor then false
    else begin
      (* Miller–Rabin: n-1 = d * 2^s with d odd. *)
      let n_minus_1 = sub n one in
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      let witness a =
        let x = ref (mod_pow a d n) in
        if equal !x one || equal !x n_minus_1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := rem (mul !x !x) n;
               if equal !x n_minus_1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec trial k =
        if k = 0 then true
        else begin
          let a = add two (random_below rng (sub n (of_int 4))) in
          if witness a then false else trial (k - 1)
        end
      in
      if compare n (of_int 5) < 0 then true else trial 20
    end
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Nat.random_prime: need at least 2 bits";
  let rec search () =
    let candidate = random_bits rng bits in
    (* Force exact bit-length and oddness. *)
    let candidate = add candidate (shift_left one (bits - 1)) in
    let candidate = if is_even candidate then add candidate one else candidate in
    let candidate =
      if num_bits candidate > bits then sub candidate (shift_left one bits) else candidate
    in
    if num_bits candidate = bits && is_probable_prime rng candidate then candidate else search ()
  in
  search ()
