(** Arbitrary-precision natural numbers.

    Values are immutable.  This module exists because the degeneracy
    protocol's power sums reach [n^(k+1)], which overflows native 63-bit
    integers for realistic [n] and [k], and the container provides no
    bignum package.  The representation is a little-endian array of
    base-2{^30} digits with no trailing zero digit. *)

type t

val zero : t
val one : t

(** [of_int v] converts a non-negative native integer.
    @raise Invalid_argument if [v < 0]. *)
val of_int : int -> t

(** [to_int n] converts back to a native integer.
    @raise Failure if [n] exceeds [max_int]. *)
val to_int : t -> int

(** [to_int_opt n] is [Some v] when [n] fits a native integer. *)
val to_int_opt : t -> int option

val is_zero : t -> bool
val equal : t -> t -> bool

(** [compare a b] is the numeric order. *)
val compare : t -> t -> int

val add : t -> t -> t

(** [sub a b] is [a - b].  @raise Invalid_argument if [a < b]. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)] with euclidean semantics.
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** [pow base e] is [base{^e}].  [pow zero 0] is [one]. *)
val pow : t -> int -> t

(** [shift_left n k] is [n * 2{^k}]. *)
val shift_left : t -> int -> t

(** [shift_right n k] is [n / 2{^k}]. *)
val shift_right : t -> int -> t

(** [num_bits n] is [0] for zero and [floor(log2 n) + 1] otherwise. *)
val num_bits : t -> int

(** [of_string s] parses a decimal string.
    @raise Invalid_argument on the empty string or non-digit characters. *)
val of_string : string -> t

(** [to_string n] is the decimal rendering. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Smallest digits first; exposed for tests and for bit-exact message
    serialization. *)
val to_digits : t -> int array

(** [of_digits d] builds a value from base-2{^30} digits, normalizing
    trailing zeros.  @raise Invalid_argument if a digit is out of range. *)
val of_digits : int array -> t
