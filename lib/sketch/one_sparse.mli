(** 1-sparse recovery sketch.

    A linear summary of an integer vector [x] (indices [0 .. dim - 1])
    from which the single non-zero coordinate can be recovered exactly
    when [x] is 1-sparse, and non-1-sparseness is detected with
    probability [1 - deg/p] via a Schwartz–Zippel style fingerprint:

    - [s0 = sum_i x_i]
    - [s1 = sum_i i * x_i]
    - [s2 = sum_i x_i * z^i]  in GF(p), for a seeded evaluation point [z].

    If [x = c * e_i] then [s1 = c * i] and [s2 = c * z^i]; the recovery
    checks the fingerprint before answering.  All operations are linear,
    so sketches of different vectors add componentwise — the property
    the connectivity protocol exploits when the referee sums the
    sketches of a whole component. *)

type t

(** [create ~z] is the zero sketch with evaluation point [z]. *)
val create : z:int -> t

(** [update t ~index ~delta] adds [delta] (usually [+1] or [-1]) to
    coordinate [index].
    @raise Invalid_argument on negative index. *)
val update : t -> index:int -> delta:int -> t

(** [update_pow t ~index ~delta ~pow] is [update t ~index ~delta] for a
    caller that already holds [pow = z^index]: the sketches of one
    {!L0_sampler} share [z], so it raises [z] to [index] once for all
    its levels. *)
val update_pow : t -> index:int -> delta:int -> pow:Field.t -> t

(** [combine a b] is the sketch of the summed vectors.
    @raise Invalid_argument if the evaluation points differ. *)
val combine : t -> t -> t

(** [is_zero t] — true when the sketch is identically zero (the vector
    is zero, or an improbable fingerprint collision). *)
val is_zero : t -> bool

(** [recover t] is [Some (index, value)] when the sketch passes the
    1-sparse fingerprint test, [None] otherwise.  Values are returned
    in the symmetric range [-(p-1)/2 .. (p-1)/2] (edge vectors only ever
    hold ±1 and small sums). *)
val recover : t -> (int * int) option

(** Serialization: exactly [3 * 31] bits. *)
val write : Refnet_bits.Bit_writer.t -> t -> unit

val read : Refnet_bits.Bit_reader.t -> z:int -> t

val bits : int
