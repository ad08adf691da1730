(* GOOD (deep): the same sealed absorb, raising [Message.Malformed] for
   a hostile id: the guard under [Protocol.sealed] marks the sender
   malformed and the fold goes on, so nothing escapes. *)

let slot id = if id > 64 then raise Message.Malformed else id

let protocol =
  Protocol.sealed ~name:"fixture+sealed"
    ~local:(fun _view -> Message.empty)
    ~init:(fun ~n:_ -> 0)
    ~absorb:(fun ~n:_ acc ~id _payload -> acc + slot id)
    ~finish:(fun ~n:_ _report ~trusted:_ acc -> acc)
