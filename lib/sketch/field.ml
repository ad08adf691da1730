type t = int

let p = (1 lsl 31) - 1

let bits = 31

let of_int v =
  let r = v mod p in
  if r < 0 then r + p else r

let zero = 0
let one = 1

(* [s - p], plus [p] back when that is negative: the sign bit
   ([asr 62] is [-1] or [0]) selects it without a branch, which random
   field values would mispredict half the time. *)
let reduce s =
  let s = s - p in
  s + ((s asr 62) land p)

let add a b = reduce (a + b)

let sub a b = if a >= b then a - b else a + p - b

let neg a = if a = 0 then 0 else p - a

(* a, b <= p so m = a * b < 2^62 fits.  2^31 = 1 (mod p) folds the
   high bits onto the low ones: (m land p) + (m lsr 31) < 2p, since
   m lsr 31 <= p - 1 when m <= p^2, so one subtraction reduces it. *)
let mul a b =
  let m = a * b in
  reduce ((m land p) + (m lsr 31))

let pow b e =
  if e < 0 then invalid_arg "Field.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one b e

let inv x = if x = 0 then raise Division_by_zero else pow x (p - 2)

let equal (a : int) (b : int) = a = b
