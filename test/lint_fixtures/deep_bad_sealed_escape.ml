(* BAD (deep): Not_found escapes the absorb of a sealed referee.  The
   guard under [Protocol.sealed] marks a sender malformed only for the
   documented malformed class, so a lookup miss on a hostile id would
   crash the referee instead. *)

let slot id = if id > 64 then raise Not_found else id

let protocol =
  Protocol.sealed ~name:"fixture+sealed"
    ~local:(fun _view -> Message.empty)
    ~init:(fun ~n:_ -> 0)
    ~absorb:(fun ~n:_ acc ~id _payload -> acc + slot id)
    ~finish:(fun ~n:_ _report ~trusted:_ acc -> acc)
