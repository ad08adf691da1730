(* GOOD (deep): the pool computes, and the one writer records after the
   join, in item order. *)

let absorb_all flight trace bits =
  let sizes = Parallel.map_array (fun b -> b * 2) bits in
  Array.iteri
    (fun i b -> Flight.record flight ~trace (Trace.Referee_absorb { id = i + 1; bits = b }))
    sizes
