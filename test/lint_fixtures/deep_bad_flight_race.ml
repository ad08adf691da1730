(* BAD (deep): a flight recorder has one writer.  Recording from a
   closure handed to the Parallel pool makes every domain a writer of
   the same ring, so entries and sequence numbers race. *)

let absorb_all flight trace bits =
  Parallel.iter_range 0 (Array.length bits) (fun i ->
      Flight.record flight ~trace (Trace.Referee_absorb { id = i + 1; bits = bits.(i) }))
