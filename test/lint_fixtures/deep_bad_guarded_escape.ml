(* BAD (deep): Not_found escapes the absorb of a guarded referee (the
   guard Protocol builds [harden] and [sealed] on).  The guard marks a sender malformed only for the documented malformed
   class, so a lookup miss on a hostile id would crash the referee
   instead. *)

let slot id = if id > 64 then raise Not_found else id

let protocol () =
  Protocol.guarded
    ~init:(fun ~n:_ -> 0)
    ~absorb:(fun ~n:_ acc ~id _msg -> acc + slot id)
    ~finish:(fun ~n:_ _report acc -> acc)
