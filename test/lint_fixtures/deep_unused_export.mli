(* unused-export fixture (with deep_unused_export.ml): the harness
   places the pair at lib/core/exported.ml{,i} next to a caller file. *)

(* GOOD: the caller file calls it *)
val called : int -> int

(* BAD: only [called], in this module, uses it *)
val helper : int -> int

(* BAD: nothing calls it *)
val dead : int -> int

(* GOOD when allowlisted: only a test would call it *)
val oracle : int -> int

module Nested : sig
  (* GOOD: the caller file calls it through the nested path *)
  val reached : unit -> int
end
