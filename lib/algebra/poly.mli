(** Dense univariate polynomials with {!Refnet_bigint.Bigint} coefficients.

    Coefficient of [x^i] is stored at index [i]; the representation is
    canonical (no zero leading coefficient).  These polynomials carry the
    neighbourhood-decoding step of the degeneracy protocol: the decoder
    rebuilds the monic polynomial whose roots are the neighbour
    identifiers. *)

open Refnet_bigint

type t

(** The zero polynomial (degree [-1] by convention). *)
val zero : t

val one : t

(** [of_coeffs c] builds a polynomial from little-endian coefficients. *)
val of_coeffs : Bigint.t array -> t

(** [degree p] is the degree, [-1] for the zero polynomial. *)
val degree : t -> int

(** [coeff p i] is the coefficient of [x^i] ([zero] beyond the degree). *)
val coeff : t -> int -> Bigint.t

val equal : t -> t -> bool

(** [constant c] is the degree-0 (or zero) polynomial [c]. *)
val constant : Bigint.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [scale c p] multiplies every coefficient by [c]. *)
val scale : Bigint.t -> t -> t

(** [eval p x] is [p(x)] by Horner's rule. *)
val eval : t -> Bigint.t -> Bigint.t

(** [derivative p] is the formal derivative. *)
val derivative : t -> t

(** [from_roots roots] is the monic polynomial [prod (x - r)]. *)
val from_roots : Bigint.t list -> t

(** [deflate p r] divides [p] by [(x - r)].
    @raise Invalid_argument if [r] is not a root of [p]. *)
val deflate : t -> Bigint.t -> t

(** [integer_roots_in p ~lo ~hi] is the increasing list of integer roots of
    [p] in the interval [lo..hi], each listed once, found by trial
    evaluation with deflation.  Intended for root sets known to be simple,
    as produced by {!from_roots} over distinct values. *)
val integer_roots_in : t -> lo:int -> hi:int -> int list

val pp : Format.formatter -> t -> unit
