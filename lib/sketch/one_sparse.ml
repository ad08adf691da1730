open Refnet_bits

type t = { z : int; s0 : Field.t; s1 : Field.t; s2 : Field.t }

let create ~z = { z = Field.of_int z; s0 = Field.zero; s1 = Field.zero; s2 = Field.zero }

let update_pow t ~index ~delta ~pow =
  if index < 0 then invalid_arg "One_sparse.update: negative index";
  let d = Field.of_int delta in
  {
    t with
    s0 = Field.add t.s0 d;
    s1 = Field.add t.s1 (Field.mul d (Field.of_int index));
    s2 = Field.add t.s2 (Field.mul d pow);
  }

let update t ~index ~delta = update_pow t ~index ~delta ~pow:(Field.pow t.z index)

let combine a b =
  if a.z <> b.z then invalid_arg "One_sparse.combine: mismatched evaluation points";
  { a with s0 = Field.add a.s0 b.s0; s1 = Field.add a.s1 b.s1; s2 = Field.add a.s2 b.s2 }

(* Map a field element to the symmetric range. *)
let symmetric v = if v > (Field.p - 1) / 2 then v - Field.p else v

let recover_fields ~z s0 s1 s2 =
  if s0 = Field.zero then None
  else begin
    (* Candidate index i = s1 / s0; fingerprint check s2 = s0 * z^i. *)
    (* lint: allow exn-escape -- s0 <> zero was checked above; inv's raise is its own domain guard *)
    let i = Field.mul s1 (Field.inv s0) in
    if Field.equal s2 (Field.mul s0 (Field.pow z i)) then Some (i, symmetric s0) else None
  end

let recover t = recover_fields ~z:t.z t.s0 t.s1 t.s2

let bits = 3 * Field.bits

let write w t =
  Codes.write_fixed w ~width:Field.bits t.s0;
  Codes.write_fixed w ~width:Field.bits t.s1;
  Codes.write_fixed w ~width:Field.bits t.s2

let read r ~z =
  let s0 = Codes.read_fixed r ~width:Field.bits in
  let s1 = Codes.read_fixed r ~width:Field.bits in
  let s2 = Codes.read_fixed r ~width:Field.bits in
  { z = Field.of_int z; s0; s1; s2 }
