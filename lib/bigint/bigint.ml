(* Sign-magnitude representation; zero has sign 0 and magnitude Nat.zero. *)

type t = { sign : int; mag : Nat.t }

let mk sign mag = if Nat.is_zero mag then { sign = 0; mag = Nat.zero } else { sign; mag }

let zero = { sign = 0; mag = Nat.zero }
let one = { sign = 1; mag = Nat.one }

let of_int v = if v >= 0 then mk 1 (Nat.of_int v) else mk (-1) (Nat.of_int (-v))

let of_nat m = mk 1 m

let to_nat n =
  if n.sign < 0 then invalid_arg "Bigint.to_nat: negative";
  n.mag

let sign n = n.sign

let neg n = mk (-n.sign) n.mag
let abs n = mk 1 n.mag

let add a b =
  match (a.sign, b.sign) with
  | 0, _ -> b
  | _, 0 -> a
  | sa, sb when sa = sb -> mk sa (Nat.add a.mag b.mag)
  | sa, _ ->
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk sa (Nat.sub a.mag b.mag)
    else mk (-sa) (Nat.sub b.mag a.mag)

let sub a b = add a (neg b)

let mul a b = mk (a.sign * b.sign) (Nat.mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  (mk (a.sign * b.sign) q, mk a.sign r)

let div_exact a b =
  let q, r = divmod a b in
  if not (Nat.is_zero r.mag) then invalid_arg "Bigint.div_exact: inexact division";
  q

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let sign = if b.sign < 0 && e land 1 = 1 then -1 else if b.sign = 0 && e > 0 then 0 else 1 in
  mk sign (Nat.pow b.mag e)

let equal a b = a.sign = b.sign && Nat.equal a.mag b.mag

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else a.sign * Nat.compare a.mag b.mag

let is_zero n = n.sign = 0

let of_string s =
  if String.length s > 0 && s.[0] = '-' then
    mk (-1) (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else Nat.of_string s |> of_nat

let to_string n = (if n.sign < 0 then "-" else "") ^ Nat.to_string n.mag

let pp fmt n = Format.pp_print_string fmt (to_string n)
