(** 32-bit FNV-1a over bytes.

    The one FNV in the tree: message seals, wire frame digests, flight
    records and large-graph fingerprints all fold through it.  It is an
    error-detecting checksum, not a MAC. *)

(** [offset] is the FNV-1a-32 offset basis [0x811c9dc5], the hash of
    the empty input. *)
val offset : int

(** [fold_byte h b] folds the low 8 bits of [b] into [h]. *)
val fold_byte : int -> int -> int

(** [fold_int h v] folds the 8 bytes of [v], least significant first. *)
val fold_int : int -> int -> int

(** [string s] is the hash of [s]: [string ""] is [0x811c9dc5],
    [string "a"] is [0xe40c292c]. *)
val string : string -> int

(** [bytes ?h b ~off ~len] folds [b.[off] .. b.[off + len - 1]] into
    [h] (default {!offset}).
    @raise Invalid_argument if the slice is out of bounds. *)
val bytes : ?h:int -> Bytes.t -> off:int -> len:int -> int
