(* BAD (deep): a streaming absorb raises the wire codec's Malformed,
   not Message.Malformed.  The two share a last component, but the
   hardened combinators absorb only Message.Malformed, so this one
   would crash the referee. *)

let check_frame v = if v > 255 then raise (Refnet_bits.Byte_io.Malformed "x") else v

let protocol () =
  Protocol.streaming
    ~init:(fun _n -> 0)
    ~absorb:(fun acc v -> acc + check_frame v)
    ~finish:(fun acc -> acc)
