(** ℓ₀-sampler: a linear sketch from which one uniform-ish non-zero
    coordinate of a vector can be recovered with constant probability.

    Construction (Ahn–Guha–McGregor style): a seeded hash assigns every
    index a geometric level ([Pr\[level >= j\] ~ 2^-j]); the sampler keeps
    one {!One_sparse} sketch per level over the indices of at least that
    level.  If the vector has [s] non-zeros, the level ~[log2 s] keeps
    about one of them, and its 1-sparse recovery succeeds.

    Everything is linear in the vector, so {!combine} of two nodes'
    samplers equals the sampler of the summed vector — the heart of the
    one-round connectivity protocol: the referee adds up the samplers of
    a whole component and samples an outgoing edge, internal edges
    having cancelled. *)

type t

(** [create ~rng ~levels] draws the hash and the fingerprint point.
    [levels] should be about [log2 dim + 2]. *)
val create : rng:Random.State.t -> levels:int -> t

(** [update t ~index ~delta] — linear coordinate update. *)
val update : t -> index:int -> delta:int -> t

(** [combine a b] — requires both built by the same [create] call (same
    seed position), enforced structurally.
    @raise Invalid_argument otherwise. *)
val combine : t -> t -> t

(** [sample t] is [Some (index, value)] when some level's sketch passes
    1-sparse recovery; [None] when the vector looks zero or recovery
    fails at every level. *)
val sample : t -> (int * int) option

(** [levels t]. *)
val levels : t -> int

(** Serialization: [levels * One_sparse.bits] bits; the hash/fingerprint
    parameters travel via the shared seed, not the message. *)
val write : Refnet_bits.Bit_writer.t -> t -> unit

(** [read r ~template] reads a sampler serialized by {!write}, taking
    hash parameters from [template] (a fresh sampler from the same seed
    position). *)
val read : Refnet_bits.Bit_reader.t -> template:t -> t

val bits : levels:int -> int

(** {1 Flat banks}

    A sampler's state is also its [3 * levels] field values: [s0], [s1],
    [s2] of level 0, then of level 1, and so on — the order {!write}
    sends them in.  A bank of several samplers holds these runs back to
    back in one [int array], updated in place; by linearity its runs
    equal the records {!update} would build. *)

(** [add t bank ~off ~index ~delta] is {!update} of [t] on the run of
    [bank] that starts at [off], in place; [z^index] is raised once and
    shared by all the levels it updates.
    @raise Invalid_argument on a negative index. *)
val add : t -> int array -> off:int -> index:int -> delta:int -> unit

(** [sample_fields t fields ~off] is {!sample} of the sampler with
    [t]'s parameters whose run of [fields] starts at [off].  The values
    are taken as they are, the non-canonical [p] included. *)
val sample_fields : t -> int array -> off:int -> (int * int) option
