(* Reading stops at [limit]: the vector's length, or a prefix's. *)
type t = { bits : Bitvec.t; mutable pos : int; limit : int }

exception Exhausted

let of_bitvec v = { bits = v; pos = 0; limit = Bitvec.length v }

let prefix v ~len =
  if len < 0 || len > Bitvec.length v then invalid_arg "Bit_reader.prefix: bad length";
  { bits = v; pos = 0; limit = len }

let remaining r = r.limit - r.pos

let position r = r.pos

let read_bit r =
  if r.pos >= r.limit then raise Exhausted;
  let b = Bitvec.get r.bits r.pos in
  r.pos <- r.pos + 1;
  b

let read_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bit_reader.read_bits: bad width";
  if remaining r < width then raise Exhausted;
  let v = Bitvec.get_bits r.bits ~pos:r.pos ~width in
  r.pos <- r.pos + width;
  v

let read_bitvec r ~len =
  if len < 0 then invalid_arg "Bit_reader.read_bitvec: negative length";
  if remaining r < len then raise Exhausted;
  let v = Bitvec.sub r.bits ~pos:r.pos ~len in
  r.pos <- r.pos + len;
  v

let unpack r ~width dst ~off ~count =
  if count > 0 && remaining r < width * count then raise Exhausted;
  Bitvec.unpack r.bits ~pos:r.pos ~width dst ~off ~count;
  r.pos <- r.pos + (width * count)
