open Refnet_bits

type t = Bitvec.t

let bits = Bitvec.length

let of_writer = Bit_writer.contents

let reader = Bit_reader.of_bitvec

let empty = Bitvec.create 0

let concat ms =
  let w = Bit_writer.create () in
  List.iter (fun m -> Bit_writer.add_bitvec w m) ms;
  Bit_writer.contents w

exception Malformed

let write_framed w m =
  Codes.write_nonneg w (Bitvec.length m);
  Bit_writer.add_bitvec w m

let read_framed r =
  (* The declared length is attacker-controlled: check it against the
     bits actually present before touching the payload, and fold every
     decoder failure (truncated gamma header, absurd widths) into the
     one documented exception. *)
  match
    let len = Codes.read_nonneg r in
    if len < 0 || len > Bit_reader.remaining r then raise Malformed;
    Bit_reader.read_bitvec r ~len
  with
  | part -> part
  | exception (Bit_reader.Exhausted | Invalid_argument _) -> raise Malformed

let bundle parts =
  let w = Bit_writer.create () in
  List.iter (write_framed w) parts;
  Bit_writer.contents w

let unbundle ~count msg =
  let r = Bit_reader.of_bitvec msg in
  List.init count (fun _ -> read_framed r)

(* ---------- integrity seals ---------- *)

let digest_bits = 32

(* FNV-1a over n, id and length (8 little-endian bytes each), then the
   payload's packed bytes, the last partial byte folded right-aligned:
   the seal layout test/seal_wire.golden pins. *)
let digest ~n ~id payload =
  let len = Bitvec.length payload in
  let h = Fnv.fold_int (Fnv.fold_int (Fnv.fold_int Fnv.offset n) id) len in
  let packed = Bytes.unsafe_of_string (Bitvec.to_packed payload) in
  let whole = len / 8 and tail = len mod 8 in
  let h = Fnv.bytes ~h packed ~off:0 ~len:whole in
  if tail = 0 then h else Fnv.fold_byte h (Char.code (Bytes.get packed whole) lsr (8 - tail))

let seal ~n ~id payload =
  let len = Bitvec.length payload in
  let sealed = Bitvec.create (len + digest_bits) in
  Bitvec.blit ~src:payload ~src_pos:0 ~dst:sealed ~dst_pos:0 ~len;
  Bitvec.set_bits sealed ~pos:len ~width:digest_bits (digest ~n ~id payload);
  sealed

let unseal ~n ~id sealed =
  let len = Bitvec.length sealed - digest_bits in
  if len < 0 then None
  else begin
    let payload = Bitvec.sub sealed ~pos:0 ~len in
    let tag = Bitvec.get_bits sealed ~pos:len ~width:digest_bits in
    if tag = digest ~n ~id payload then Some payload else None
  end

let equal = Bitvec.equal

let pp = Bitvec.pp
