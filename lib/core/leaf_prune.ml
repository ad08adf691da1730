open Refnet_graph

type rows = {
  deg : int array;
  decode : int -> int -> int array -> bool;
  remove : int -> int -> unit;
}

type outcome = Complete | Partial of int list Lazy.t | Inconsistent

(* A pruned node's degree becomes -1, so "pruned" and "exhausted" are
   one test and the unpruned ids are read back from [deg].  A node is
   queued once: at the start if its degree is at most k, else when it
   drops to exactly k — the order of a queue of every drop to <= k,
   without the stale entries. *)
let run ~n ~k ~trusted ~edge { deg; decode; remove } =
  let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let push v =
    queue.(!tail) <- v;
    incr tail
  in
  for v = 1 to n do
    if trusted v && deg.(v - 1) <= k then push v
  done;
  let nbrs = Array.make k 0 in
  match
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      let d = deg.(v - 1) in
      if not (decode v d nbrs) then raise Exit;
      for i = 0 to d - 1 do
        let u = nbrs.(i) in
        if u > n || u = v || u <= (if i = 0 then 0 else nbrs.(i - 1)) then raise Exit;
        edge v u;
        if trusted u then begin
          if deg.(u - 1) <= 0 then raise Exit;
          remove u v;
          deg.(u - 1) <- deg.(u - 1) - 1;
          if deg.(u - 1) = k then push u
        end
      done;
      deg.(v - 1) <- -1
    done
  with
  | () when !tail = n -> Complete
  | () -> Partial (lazy (List.filter (fun v -> deg.(v - 1) >= 0) (List.init n (fun i -> i + 1))))
  | exception (Exit | Invalid_argument _) -> Inconsistent

let reconstruct ~n ~k rows =
  let b = Graph.Builder.create n in
  match run ~n ~k ~trusted:(fun _ -> true) ~edge:(Graph.Builder.add_edge b) rows with
  | Complete -> Some (Graph.Builder.build b)
  | Partial _ | Inconsistent -> None

let salvage ~n ~k ~trusted rows report =
  let b = Graph.Builder.create n in
  let outcome =
    run ~n ~k ~trusted ~edge:(Graph.Builder.add_edge b) rows
  in
  let graph () = Some (Graph.Builder.build b) in
  Verdict.salvage report
    ~decide:(fun () -> match outcome with Complete -> graph () | Partial _ | Inconsistent -> None)
    ~partial:(fun () ->
      match outcome with
      | Complete -> Some (graph (), [])
      | Partial (lazy undetermined) -> Some (graph (), undetermined)
      | Inconsistent -> None)
