(* BAD (deep): a closure handed to Parallel.submit writes a captured
   ref.  The batch runs on the pool while its submitter goes on, so the
   write races with every other item and with the submitter itself. *)

let last = ref 0

let start results = Parallel.submit (Array.length results) (fun i -> last := results.(i))
