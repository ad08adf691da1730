(** Arithmetic in GF(p) for the Mersenne prime [p = 2^31 - 1].

    The linear-sketch machinery needs a field where products of two
    elements still fit a native 63-bit integer ([p^2 < 2^62]), so the
    whole sketch path stays allocation-free. *)

type t = int
(** Invariant: [0 <= x < p]. *)

val p : int

(** [bits] is [31], the width of an element on the wire: every element
    and also [p] itself fit. *)
val bits : int

(** [of_int v] reduces an arbitrary native integer (possibly negative). *)
val of_int : int -> t

val zero : t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

(** [mul a b] for [a, b] in [0 .. p] (so the non-canonical [p] too) is
    [a * b mod p], canonical. *)
val mul : t -> t -> t

(** [pow b e] for [e >= 0]. *)
val pow : t -> int -> t

(** [inv x] — multiplicative inverse. @raise Division_by_zero on zero. *)
val inv : t -> t

(** [equal] on canonical representatives. *)
val equal : t -> t -> bool
