open Refnet_bigint

type t = { k : int; n : int; rows : Nat.t array array }
(* rows.(p - 1).(i - 1) = i^p *)

let make ~k ~n =
  if k < 1 || n < 1 then invalid_arg "Vandermonde.make: parameters must be positive";
  let rows =
    Array.init k (fun p -> Array.init n (fun i -> Nat.pow (Nat.of_int (i + 1)) (p + 1)))
  in
  { k; n; rows }

let apply a positions =
  List.iter
    (fun i -> if i < 1 || i > a.n then invalid_arg "Vandermonde.apply: position out of range")
    positions;
  Array.init a.k (fun p ->
      List.fold_left (fun acc i -> Nat.add acc (a.rows.(p).(i - 1))) Nat.zero positions)
