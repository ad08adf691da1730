(** Sequential reader over a bit vector produced by {!Bit_writer}. *)

type t

exception Exhausted
(** Raised when reading past the end of the stream. *)

(** [of_bitvec v] reads [v] from bit 0. *)
val of_bitvec : Bitvec.t -> t

(** [prefix v ~len] reads the first [len] bits of [v] in place and ends
    there: reading past them raises {!Exhausted}.
    @raise Invalid_argument if [len] is out of [0 .. Bitvec.length v]. *)
val prefix : Bitvec.t -> len:int -> t

(** [remaining r] is the number of unread bits. *)
val remaining : t -> int

(** [position r] is the number of bits consumed so far. *)
val position : t -> int

(** [read_bit r] consumes one bit.  @raise Exhausted at end of stream. *)
val read_bit : t -> bool

(** [read_bits r ~width] consumes [width] bits written most-significant
    first and returns their value.
    @raise Invalid_argument if [width < 0] or [width > 62].
    @raise Exhausted if fewer than [width] bits remain. *)
val read_bits : t -> width:int -> int

(** [read_bitvec r ~len] consumes [len] bits into a fresh vector. *)
val read_bitvec : t -> len:int -> Bitvec.t

(** [unpack r ~width dst ~off ~count] is [count] {!read_bits} into
    [dst.(off) ..], with one range check ({!Bitvec.unpack}).
    @raise Exhausted if fewer than [width * count] bits remain. *)
val unpack : t -> width:int -> int array -> off:int -> count:int -> unit
