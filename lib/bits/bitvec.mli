(** Packed bit vectors.

    A [Bitvec.t] is a fixed-length vector of bits indexed from [0] to
    [length - 1].  In this library bit vectors mainly represent incidence
    vectors of vertex sets: bit [i - 1] is set when vertex [i] belongs to
    the set (vertices are numbered from 1, as in the paper).  The structure
    is mutable; all mutating operations are in-place.

    {b Layout.}  The bits are packed MSB-first: bit [i] is
    [0x80 lsr (i mod 8)] of byte [i / 8], so a vector's bytes are its
    wire form ({!to_packed}) and a message is stored as the bytes it is
    sent as.  The pad bits past [length v] in the last byte are always
    clear; every operation keeps them so, and {!of_packed} clears the
    ones it is given. *)

type t

(** [create n] is a vector of [n] bits, all clear.
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [length v] is the number of bits of [v]. *)
val length : t -> int

(** [get v i] is bit [i].
    @raise Invalid_argument if [i] is out of bounds. *)
val get : t -> int -> bool

(** [set v i] sets bit [i]. *)
val set : t -> int -> unit

(** [clear v i] clears bit [i]. *)
val clear : t -> int -> unit

(** [assign v i b] sets bit [i] to [b]. *)
val assign : t -> int -> bool -> unit

(** [copy v] is a fresh vector equal to [v]. *)
val copy : t -> t

(** [popcount v] is the number of set bits. *)
val popcount : t -> int

(** [equal u v] is true when [u] and [v] have the same length and the same
    bits. *)
val equal : t -> t -> bool

(** [compare] is a total order compatible with [equal]. *)
val compare : t -> t -> int

(** [iter_set v f] applies [f] to the index of every set bit, in
    increasing order. *)
val iter_set : t -> (int -> unit) -> unit

(** [fold_set v init f] folds [f] over the indices of set bits in
    increasing order. *)
val fold_set : t -> 'a -> ('a -> int -> 'a) -> 'a

(** [to_list v] is the increasing list of indices of set bits. *)
val to_list : t -> int list

(** [of_list n l] is the [n]-bit vector whose set bits are exactly the
    elements of [l].
    @raise Invalid_argument if an element is out of bounds. *)
val of_list : int -> int list -> t

(** [union u v] is the bitwise or of [u] and [v].
    @raise Invalid_argument on length mismatch. *)
val union : t -> t -> t

(** [inter u v] is the bitwise and of [u] and [v]. *)
val inter : t -> t -> t

(** [diff u v] has the bits of [u] that are not in [v]. *)
val diff : t -> t -> t

(** [complement v] flips every bit of [v]. *)
val complement : t -> t

(** [is_empty v] is true when no bit is set. *)
val is_empty : t -> bool

(** [subset u v] is true when every set bit of [u] is set in [v]. *)
val subset : t -> t -> bool

(** {1 Word-level access}

    Ranges of up to 62 bits read and written as one integer, first bit
    most significant, with at most two 64-bit loads or stores each. *)

(** [get_bits v ~pos ~width] is bits [pos .. pos + width - 1] of [v]
    as an integer, bit [pos] most significant.
    @raise Invalid_argument if [width] is outside [0 .. 62] or the range
    is out of bounds. *)
val get_bits : t -> pos:int -> width:int -> int

(** [unpack v ~pos ~width dst ~off ~count] stores the [count]
    consecutive [width]-bit fields of [v] from bit [pos] in [dst.(off)
    .. dst.(off + count - 1)]: field [k] is [get_bits v ~pos:(pos + k *
    width) ~width], with one range check for the whole run.
    @raise Invalid_argument if [width] is outside [0 .. 62] or either
    range is out of bounds. *)
val unpack : t -> pos:int -> width:int -> int array -> off:int -> count:int -> unit

(** [set_bits v ~pos ~width x] overwrites bits [pos .. pos + width - 1]
    of [v] with the [width] low bits of [x], most significant first.
    @raise Invalid_argument if [width] is outside [0 .. 62], the range
    is out of bounds, [x < 0] or [x] does not fit in [width] bits. *)
val set_bits : t -> pos:int -> width:int -> int -> unit

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] overwrites [len] bits of
    [dst] from [dst_pos] with the bits of [src] from [src_pos]: one byte
    blit when both positions are multiples of 8, a shifted word copy
    otherwise.  When [src == dst] the two ranges must not overlap.
    @raise Invalid_argument if either range is out of bounds. *)
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [sub v ~pos ~len] is a fresh vector of bits [pos .. pos + len - 1].
    @raise Invalid_argument if the range is out of bounds. *)
val sub : t -> pos:int -> len:int -> t

(** {1 Packed bytes} *)

(** [to_packed v] is a copy of the [(length v + 7) / 8] bytes of [v]
    in the layout above: MSB-first, pad bits clear. *)
val to_packed : t -> string

(** [blit_packed v dst pos] writes the bytes {!to_packed} returns into
    [dst] from [pos], without the intermediate string.
    @raise Invalid_argument if they do not fit. *)
val blit_packed : t -> Bytes.t -> int -> unit

(** [fnv ?h v ~len] folds the first [len] bits of [v] into [h] with
    {!Fnv.bytes}, reading [v] in place: the [len / 8] whole bytes, then
    the last partial byte, if any, right-aligned (its [len mod 8] bits
    as a number).
    @raise Invalid_argument if [len] is negative or past [length v]. *)
val fnv : ?h:int -> t -> len:int -> int

(** [of_packed ?off ~len s] is the [len]-bit vector packed MSB-first in
    the [(len + 7) / 8] bytes of [s] from [off] (default [0]).  The
    bytes are copied, and pad bits set in [s] are cleared.
    @raise Invalid_argument if [len < 0] or [s] holds too few bytes. *)
val of_packed : ?off:int -> len:int -> string -> t

(** [pp] prints the vector as a ['0'/'1'] string, bit 0 leftmost. *)
val pp : Format.formatter -> t -> unit

(** [to_string v] is the ['0'/'1'] rendering of [v]. *)
val to_string : t -> string
