(* Bit [i] is [0x80 lsr (i mod 8)] of byte [i / 8]: the bytes are the
   vector's MSB-first wire form.  Pad bits past [len] in the last byte
   are always clear, so [equal], [compare] and [popcount] can work on
   whole bytes. *)
type t = { len : int; bytes : Bytes.t }

let byte_count n = (n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bitvec.create: negative length";
  { len = n; bytes = Bytes.make (byte_count n) '\000' }

let length v = v.len

let check v i name =
  if i < 0 || i >= v.len then invalid_arg ("Bitvec." ^ name ^ ": index out of bounds")

let mask i = 0x80 lsr (i land 7)

let get v i =
  check v i "get";
  Char.code (Bytes.get v.bytes (i lsr 3)) land mask i <> 0

let set v i =
  check v i "set";
  let w = i lsr 3 in
  Bytes.set v.bytes w (Char.unsafe_chr (Char.code (Bytes.get v.bytes w) lor mask i))

let clear v i =
  check v i "clear";
  let w = i lsr 3 in
  Bytes.set v.bytes w (Char.unsafe_chr (Char.code (Bytes.get v.bytes w) land lnot (mask i)))

let assign v i b = if b then set v i else clear v i

let copy v = { len = v.len; bytes = Bytes.copy v.bytes }

(* ---------- word-level access ---------- *)

let check_range v ~pos ~len name =
  if pos < 0 || len < 0 || pos > v.len - len then
    invalid_arg ("Bitvec." ^ name ^ ": range out of bounds")

let check_width width name =
  if width < 0 || width > 62 then invalid_arg ("Bitvec." ^ name ^ ": bad width")

(* Fewer than 8 bytes from [byte] to the end of [b], as an int (first
   byte most significant), and back. *)
let tail_get b byte =
  let acc = ref 0 in
  for k = byte to Bytes.length b - 1 do
    acc := (!acc lsl 8) lor Char.code (Bytes.get b k)
  done;
  !acc

let tail_set b byte x =
  let x = ref x in
  for k = Bytes.length b - 1 downto byte do
    Bytes.set b k (Char.unsafe_chr (!x land 0xff));
    x := !x lsr 8
  done

(* [extract b ~pos ~width] is bits [pos, pos + width) of [b], first bit
   most significant, for [1 <= width <= 62] inside [b]: one 64-bit load
   where 8 bytes are left, plus the ninth byte when the bits end past
   the word ([pos mod 8 + width > 64]); a byte loop at the tail. *)
let extract b ~pos ~width =
  let byte = pos lsr 3 and sh = pos land 7 in
  let avail = Bytes.length b - byte in
  if avail >= 8 then begin
    let x = Int64.shift_left (Bytes.get_int64_be b byte) sh in
    if sh + width <= 64 then Int64.to_int (Int64.shift_right_logical x (64 - width))
    else begin
      let extra = sh + width - 64 in
      (Int64.to_int (Int64.shift_right_logical x sh) lsl extra)
      lor (Char.code (Bytes.get b (byte + 8)) lsr (8 - extra))
    end
  end
  else (tail_get b byte lsr ((8 * avail) - sh - width)) land ((1 lsl width) - 1)

(* [deposit b ~pos ~width value] overwrites bits [pos, pos + width) of
   [b] with [value]; the same shape as [extract]: one 64-bit load and
   store, plus the ninth byte when the bits end past the word. *)
let deposit b ~pos ~width value =
  let byte = pos lsr 3 and sh = pos land 7 in
  let avail = Bytes.length b - byte in
  if avail >= 8 then begin
    let extra = if sh + width > 64 then sh + width - 64 else 0 in
    let at = 64 - sh - (width - extra) in
    let m = Int64.shift_left (Int64.of_int ((1 lsl (width - extra)) - 1)) at in
    let x = Int64.logand (Bytes.get_int64_be b byte) (Int64.lognot m) in
    Bytes.set_int64_be b byte (Int64.logor x (Int64.shift_left (Int64.of_int (value lsr extra)) at));
    if extra > 0 then begin
      let at = 8 - extra in
      let m = ((1 lsl extra) - 1) lsl at in
      let c = Char.code (Bytes.get b (byte + 8)) land lnot m lor ((value lsl at) land m) in
      Bytes.set b (byte + 8) (Char.unsafe_chr c)
    end
  end
  else begin
    let at = (8 * avail) - sh - width in
    let m = ((1 lsl width) - 1) lsl at in
    tail_set b byte (tail_get b byte land lnot m lor (value lsl at))
  end

let get_bits v ~pos ~width =
  check_width width "get_bits";
  check_range v ~pos ~len:width "get_bits";
  if width = 0 then 0 else extract v.bytes ~pos ~width

let unpack v ~pos ~width dst ~off ~count =
  check_width width "unpack";
  if count < 0 || off < 0 || off > Array.length dst - count then
    invalid_arg "Bitvec.unpack: destination out of bounds";
  check_range v ~pos ~len:(width * count) "unpack";
  if width > 0 then begin
    (* [extract]'s one-load case inline: a field that starts 8 bytes or
       more before the end and fits the loaded word *)
    let b = v.bytes in
    let last = Bytes.length b - 8 in
    for k = 0 to count - 1 do
      let at = pos + (k * width) in
      let byte = at lsr 3 and sh = at land 7 in
      Array.unsafe_set dst (off + k)
        (if byte <= last && sh + width <= 64 then
           Int64.to_int
             (Int64.shift_right_logical (Int64.shift_left (Bytes.get_int64_be b byte) sh) (64 - width))
         else extract b ~pos:at ~width)
    done
  end

let set_bits v ~pos ~width value =
  check_width width "set_bits";
  check_range v ~pos ~len:width "set_bits";
  if value < 0 || (width < 62 && value lsr width <> 0) then
    invalid_arg "Bitvec.set_bits: value does not fit";
  if width > 0 then deposit v.bytes ~pos ~width value

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check_range src ~pos:src_pos ~len "blit";
  check_range dst ~pos:dst_pos ~len "blit";
  if src_pos land 7 = 0 && dst_pos land 7 = 0 then begin
    (* byte-aligned: one blit, then the last partial byte *)
    let whole = len lsr 3 and tail = len land 7 in
    Bytes.blit src.bytes (src_pos lsr 3) dst.bytes (dst_pos lsr 3) whole;
    if tail > 0 then
      deposit dst.bytes ~pos:(dst_pos + len - tail) ~width:tail
        (extract src.bytes ~pos:(src_pos + len - tail) ~width:tail)
  end
  else begin
    (* shifted: 56-bit words, read at the source offset and written at
       the destination offset; 56 bits at any offset mod 8 fit one
       64-bit word, so neither side splits *)
    let done_ = ref 0 in
    while !done_ < len do
      let width = if len - !done_ < 56 then len - !done_ else 56 in
      deposit dst.bytes ~pos:(dst_pos + !done_) ~width
        (extract src.bytes ~pos:(src_pos + !done_) ~width);
      done_ := !done_ + width
    done
  end

let sub v ~pos ~len =
  check_range v ~pos ~len "sub";
  let r = create len in
  blit ~src:v ~src_pos:pos ~dst:r ~dst_pos:0 ~len;
  r

let to_packed v = Bytes.to_string v.bytes
let blit_packed v dst pos = Bytes.blit v.bytes 0 dst pos (Bytes.length v.bytes)

let fnv ?h v ~len =
  check_range v ~pos:0 ~len "fnv";
  let whole = len lsr 3 and tail = len land 7 in
  let h = Fnv.bytes ?h v.bytes ~off:0 ~len:whole in
  if tail = 0 then h else Fnv.fold_byte h (Char.code (Bytes.get v.bytes whole) lsr (8 - tail))

let of_packed ?(off = 0) ~len s =
  if len < 0 then invalid_arg "Bitvec.of_packed: negative length";
  let n = byte_count len in
  if off < 0 || off > String.length s - n then invalid_arg "Bitvec.of_packed: not enough bytes";
  let bytes = Bytes.create n in
  Bytes.blit_string s off bytes 0 n;
  let pad = (8 * n) - len in
  if pad > 0 then
    Bytes.set bytes (n - 1) (Char.unsafe_chr (Char.code (Bytes.get bytes (n - 1)) land (0xff lsl pad) land 0xff));
  { len; bytes }

(* Number of set bits of a byte, by nibble table. *)
let nibble_pop = [| 0; 1; 1; 2; 1; 2; 2; 3; 1; 2; 2; 3; 2; 3; 3; 4 |]

let byte_pop c = nibble_pop.(c land 0xf) + nibble_pop.(c lsr 4)

let popcount v =
  let acc = ref 0 in
  for w = 0 to Bytes.length v.bytes - 1 do
    acc := !acc + byte_pop (Char.code (Bytes.get v.bytes w))
  done;
  !acc

let equal u v = u.len = v.len && Bytes.equal u.bytes v.bytes

let compare u v =
  let c = Stdlib.compare u.len v.len in
  if c <> 0 then c else Bytes.compare u.bytes v.bytes

let iter_set v f =
  for w = 0 to Bytes.length v.bytes - 1 do
    let c = Char.code (Bytes.get v.bytes w) in
    if c <> 0 then
      for b = 0 to 7 do
        if c land (0x80 lsr b) <> 0 then f ((w * 8) + b)
      done
  done

let fold_set v init f =
  let acc = ref init in
  iter_set v (fun i -> acc := f !acc i);
  !acc

let to_list v = List.rev (fold_set v [] (fun acc i -> i :: acc))

let of_list n l =
  let v = create n in
  List.iter (fun i -> set v i) l;
  v

let same_length u v name =
  if u.len <> v.len then invalid_arg ("Bitvec." ^ name ^ ": length mismatch")

let map2 name op u v =
  same_length u v name;
  let r = create u.len in
  for w = 0 to Bytes.length u.bytes - 1 do
    let c = op (Char.code (Bytes.get u.bytes w)) (Char.code (Bytes.get v.bytes w)) in
    Bytes.set r.bytes w (Char.chr (c land 0xff))
  done;
  r

let union u v = map2 "union" ( lor ) u v
let inter u v = map2 "inter" ( land ) u v
let diff u v = map2 "diff" (fun a b -> a land lnot b) u v

let complement v =
  let r = create v.len in
  for w = 0 to Bytes.length v.bytes - 1 do
    Bytes.set r.bytes w (Char.chr (lnot (Char.code (Bytes.get v.bytes w)) land 0xff))
  done;
  (* Trailing bits beyond [len] must stay clear so that [equal] and
     [popcount] remain meaningful. *)
  let extra = (byte_count v.len * 8) - v.len in
  if extra > 0 then begin
    let w = Bytes.length r.bytes - 1 in
    Bytes.set r.bytes w (Char.chr (Char.code (Bytes.get r.bytes w) land (0xff lsl extra) land 0xff))
  end;
  r

let is_empty v =
  let rec go w = w >= Bytes.length v.bytes || (Bytes.get v.bytes w = '\000' && go (w + 1)) in
  go 0

let subset u v =
  same_length u v "subset";
  let rec go w =
    w >= Bytes.length u.bytes
    ||
    let a = Char.code (Bytes.get u.bytes w) and b = Char.code (Bytes.get v.bytes w) in
    a land lnot b = 0 && go (w + 1)
  in
  go 0

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

let pp fmt v = Format.pp_print_string fmt (to_string v)
