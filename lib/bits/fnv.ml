let offset = 0x811c9dc5
let prime = 16777619

let fold_byte h b = ((h lxor (b land 0xff)) * prime) land 0xffffffff

let fold_int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fold_byte !h (v lsr (8 * i))
  done;
  !h

let bytes ?(h = offset) b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Fnv.bytes: bad slice";
  (* The low 32 bits of a product depend only on the low 32 bits of its
     factors, even when the native multiplication wraps: mask once. *)
  let h = ref h in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * prime
  done;
  !h land 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
