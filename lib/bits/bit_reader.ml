type t = { bits : Bitvec.t; mutable pos : int }

exception Exhausted

let of_bitvec v = { bits = v; pos = 0 }

let remaining r = Bitvec.length r.bits - r.pos

let position r = r.pos

let read_bit r =
  if r.pos >= Bitvec.length r.bits then raise Exhausted;
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
