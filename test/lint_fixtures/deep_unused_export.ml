(* Implementation half of the unused-export fixture pair. *)

let helper x = x + 1
let called x = helper x * 2
let dead x = x - 1
let oracle x = x

module Nested = struct
  let reached () = 42
end
