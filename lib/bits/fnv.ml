let offset = 0x811c9dc5
let prime = 16777619

let fold_byte h b = ((h lxor (b land 0xff)) * prime) land 0xffffffff

(* The chains below run on an unboxed [nativeint]: a tagged [int]
   product costs a detag and a retag around every multiply, half again
   the xor-multiply latency the chain is bound by.  The low 32 bits of a
   product depend only on the low 32 bits of its factors, even when the
   native multiplication wraps, so the result is masked once, at the
   end. *)
let[@inline] step h byte = Nativeint.mul (Nativeint.logxor h (Nativeint.of_int byte)) 16777619n

let fold_int h v =
  let h = ref (Nativeint.of_int h) in
  for i = 0 to 7 do
    h := step !h ((v lsr (8 * i)) land 0xff)
  done;
  Nativeint.to_int !h land 0xffffffff

let bytes ?(h = offset) b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Fnv.bytes: bad slice";
  let h = ref (Nativeint.of_int h) in
  for i = off to off + len - 1 do
    h := step !h (Char.code (Bytes.unsafe_get b i))
  done;
  Nativeint.to_int !h land 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
