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
   first [len] bits of [v]'s packed bytes, the last partial byte folded
   right-aligned: the seal layout test/seal_wire.golden pins. *)
let digest ~n ~id v ~len =
  Bitvec.fnv ~h:(Fnv.fold_int (Fnv.fold_int (Fnv.fold_int Fnv.offset n) id) len) v ~len

let seal ~n ~id payload =
  let len = Bitvec.length payload in
  let sealed = Bitvec.create (len + digest_bits) in
  Bitvec.blit ~src:payload ~src_pos:0 ~dst:sealed ~dst_pos:0 ~len;
  Bitvec.set_bits sealed ~pos:len ~width:digest_bits (digest ~n ~id payload ~len);
  sealed

(* The payload is the sealed vector's prefix, so the digest is taken
   over [sealed] itself and the payload copied only when it matches. *)
let verify ~n ~id sealed =
  let len = Bitvec.length sealed - digest_bits in
  len >= 0 && Bitvec.get_bits sealed ~pos:len ~width:digest_bits = digest ~n ~id sealed ~len

let unseal ~n ~id sealed =
  if verify ~n ~id sealed then
    Some (Bitvec.sub sealed ~pos:0 ~len:(Bitvec.length sealed - digest_bits))
  else None

let equal = Bitvec.equal
