(** The matrix [A(k, n)] of the paper's Definition 3: [A_{p,i} = i^p] for
    [i = 1..n] and [p = 1..k].

    {!Power_sum.encode} computes the product [A . x] without materializing
    the matrix; this module materializes it so tests can cross-check the
    two. *)

open Refnet_bigint

type t

(** [make ~k ~n] builds [A(k, n)].  Memory is [O(k n)] bigints. *)
val make : k:int -> n:int -> t

(** [apply a x] is the product [A . x] for an incidence vector [x] of
    length [n] over [{0,1}], given as the increasing list of set
    positions (1-based). *)
val apply : t -> int list -> Nat.t array
