(* The stream is a growable bit vector [buf] whose first [len] bits are
   the contents; every append is a word or blit operation on it. *)
type t = { mutable buf : Bitvec.t; mutable len : int }

let create () = { buf = Bitvec.create 128; len = 0 }

let length w = w.len

let ensure w extra =
  let needed = w.len + extra in
  let cap = Bitvec.length w.buf in
  if needed > cap then begin
    let buf = Bitvec.create (max needed (2 * cap)) in
    Bitvec.blit ~src:w.buf ~src_pos:0 ~dst:buf ~dst_pos:0 ~len:w.len;
    w.buf <- buf
  end

let add_bit w b =
  ensure w 1;
  Bitvec.assign w.buf w.len b;
  w.len <- w.len + 1

let add_bits w ~value ~width =
  if width < 0 || width > 62 then invalid_arg "Bit_writer.add_bits: bad width";
  if value < 0 then invalid_arg "Bit_writer.add_bits: negative value";
  if width < 62 && value lsr width <> 0 then
    invalid_arg "Bit_writer.add_bits: value does not fit";
  ensure w width;
  Bitvec.set_bits w.buf ~pos:w.len ~width value;
  w.len <- w.len + width

let add_bitvec w v =
  let len = Bitvec.length v in
  ensure w len;
  Bitvec.blit ~src:v ~src_pos:0 ~dst:w.buf ~dst_pos:w.len ~len;
  w.len <- w.len + len

let append w w' =
  let len = w'.len in
  ensure w len;
  (* [ensure] may have replaced [w.buf], which is [w'.buf] when [w == w'] *)
  Bitvec.blit ~src:w'.buf ~src_pos:0 ~dst:w.buf ~dst_pos:w.len ~len;
  w.len <- w.len + len

let contents w = Bitvec.sub w.buf ~pos:0 ~len:w.len
