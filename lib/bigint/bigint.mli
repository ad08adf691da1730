(** Arbitrary-precision signed integers built on {!Nat}.

    Needed by the Newton-identities decoder, whose intermediate elementary
    symmetric computations alternate signs even though inputs and outputs
    are non-negative. *)

type t

val zero : t
val one : t

val of_int : int -> t

(** [of_nat n] embeds a natural number. *)
val of_nat : Nat.t -> t

(** [to_nat n] is the magnitude of a non-negative value.
    @raise Invalid_argument if [n < 0]. *)
val to_nat : t -> Nat.t

(** [sign n] is [-1], [0] or [1]. *)
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is euclidean-style division truncated toward zero, like
    OCaml's native [(/)] and [mod]: [a = q*b + r] with [|r| < |b|] and [r]
    carrying the sign of [a].
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** [div_exact a b] is [a / b] when [b] divides [a].
    @raise Invalid_argument when the division has a remainder; used by the
    Newton decoder where divisibility is a correctness invariant. *)
val div_exact : t -> t -> t

(** [pow base e] is [base{^e}] for [e >= 0]. *)
val pow : t -> int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool

val of_string : string -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
