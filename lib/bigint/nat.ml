(* Little-endian base-2^30 digits, no trailing zero digit; zero is [||]. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let digit_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]

let is_zero n = Array.length n = 0

(* Drop trailing zero digits so representations are canonical. *)
let normalize (d : int array) : t =
  let len = ref (Array.length d) in
  while !len > 0 && d.(!len - 1) = 0 do
    decr len
  done;
  if !len = Array.length d then d else Array.sub d 0 !len

let of_int v =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  if v = 0 then zero
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr base_bits) in
    let len = count 0 v in
    Array.init len (fun i -> (v lsr (i * base_bits)) land digit_mask)
  end

let to_int_opt n =
  (* 63-bit native ints hold at most three digits, and only some of those. *)
  if Array.length n > 3 then None
  else begin
    let acc = ref 0 and ok = ref true in
    for i = Array.length n - 1 downto 0 do
      if !acc > (max_int - n.(i)) lsr base_bits then ok := false
      else acc := (!acc lsl base_bits) lor n.(i)
    done;
    if !ok then Some !acc else None
  end

let to_int n =
  match to_int_opt n with
  | Some v -> v
  | None -> failwith "Nat.to_int: overflow" (* lint: allow referee-totality -- documented contract; use to_int_opt for the total variant *)

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land digit_mask;
    carry := s lsr base_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: result would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai * b.(j) < 2^60, plus digit and carry stays below 2^62. *)
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land digit_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land digit_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize r
  end

let karatsuba_threshold = 32

let split (a : t) (h : int) : t * t =
  if Array.length a <= h then (a, zero)
  else (normalize (Array.sub a 0 h), normalize (Array.sub a h (Array.length a - h)))

let shift_digits (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let r = Array.make (Array.length a + k) 0 in
    Array.blit a 0 r k (Array.length a);
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let h = (max la lb + 1) / 2 in
    let a0, a1 = split a h and b0, b1 = split b h in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_digits z1 h)) (shift_digits z2 (2 * h))
  end

(* Division by a single digit, used directly and by string conversion. *)
let divmod_digit (a : t) (d : int) : t * int =
  if d = 0 then raise Division_by_zero;
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

let shift_left (a : t) (k : int) : t =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let dk = k / base_bits and bk = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + dk + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bk in
      r.(i + dk) <- r.(i + dk) lor (v land digit_mask);
      r.(i + dk + 1) <- r.(i + dk + 1) lor (v lsr base_bits)
    done;
    normalize r
  end

let shift_right (a : t) (k : int) : t =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  let dk = k / base_bits and bk = k mod base_bits in
  let la = Array.length a in
  if dk >= la then zero
  else begin
    let lr = la - dk in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let lo = a.(i + dk) lsr bk in
      let hi = if bk > 0 && i + dk + 1 < la then (a.(i + dk + 1) lsl (base_bits - bk)) land digit_mask else 0 in
      r.(i) <- lo lor hi
    done;
    normalize r
  end

let num_bits (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr 1) in
    ((la - 1) * base_bits) + count 0 top
  end

(* Knuth algorithm D.  [a] and [b] with [b] of at least two digits. *)
let divmod_knuth (a : t) (b : t) : t * t =
  let n = Array.length b in
  (* Normalize so the top divisor digit is at least base/2. *)
  let s = base_bits - num_bits [| b.(n - 1) |] in
  let u' = shift_left a s and v = shift_left b s in
  let m = Array.length u' - n in
  let u = Array.make (Array.length u' + 1) 0 in
  Array.blit u' 0 u 0 (Array.length u');
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top2 = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top2 / v.(n - 1)) in
    let rhat = ref (top2 mod v.(n - 1)) in
    let v2 = if n >= 2 then v.(n - 2) else 0 in
    let u2 = u.(j + n - 2) in
    while
      !qhat >= base
      || (!rhat < base && !qhat * v2 > (!rhat lsl base_bits) lor u2)
    do
      decr qhat;
      rhat := !rhat + v.(n - 1)
    done;
    (* Multiply and subtract qhat * v from u[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land digit_mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add v back and decrement. *)
      u.(j + n) <- d + base;
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- s land digit_mask;
        carry := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land digit_mask
    end else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_digit a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let pow b e =
  if e < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let of_string s =
  if String.length s = 0 then invalid_arg "Nat.of_string: empty";
  let acc = ref zero in
  let ten = of_int 10 in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Nat.of_string: not a digit";
      acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0')))
    s;
  !acc

let to_string n =
  if is_zero n then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec go n =
      if not (is_zero n) then begin
        (* 10^9 fits a single base-2^30 digit. *)
        let q, r = divmod_digit n 1_000_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go n;
    Buffer.contents buf
  end

let pp fmt n = Format.pp_print_string fmt (to_string n)

let to_digits (n : t) = Array.copy n

let of_digits d =
  Array.iter (fun x -> if x < 0 || x >= base then invalid_arg "Nat.of_digits: digit out of range") d;
  normalize (Array.copy d)
