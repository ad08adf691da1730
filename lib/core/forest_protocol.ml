open Refnet_bits
open Refnet_graph

let message_bits = Bounds.forest_message_bits

let local v =
  let n = View.n v in
  let w = Bounds.id_bits n in
  let wr = Bit_writer.create () in
  Codes.write_fixed wr ~width:w (View.id v);
  Codes.write_fixed wr ~width:w (View.deg v);
  (* Sum of at most n identifiers of at most n: fits 2w bits. *)
  Codes.write_fixed wr ~width:(2 * w) (View.fold_neighbors v 0 ( + ));
  Message.of_writer wr

(* Streaming referee state: the (degree, neighbour-ID-sum) tables,
   allocated once at [init] — each absorb decodes one triple in place,
   so referee memory is O(n) words total and O(1) per message. *)
type state = { deg : int array; sum : int array; mutable bad : bool }

let init ~n = { deg = Array.make n 0; sum = Array.make n 0; bad = false }

(* Read one (id echo, degree, sum) row into its slot; raises
   [Message.Malformed] if it disagrees with the sender or the size. *)
let read_row ~n st ~id r =
  let w = Bounds.id_bits n in
  if Codes.read_fixed r ~width:w <> id then raise Message.Malformed;
  let d = Codes.read_fixed r ~width:w in
  if d > n - 1 then raise Message.Malformed;
  st.deg.(id - 1) <- d;
  st.sum.(id - 1) <- Codes.read_fixed r ~width:(2 * w)

let absorb ~n st ~id msg =
  (try read_row ~n st ~id (Message.reader msg) with Message.Malformed | Bit_reader.Exhausted -> st.bad <- true);
  st

(* The rows as Algorithm 4 reads them at k = 1 ({!Leaf_prune}): a
   degree-1 row's sum {e is} its neighbour, a degree-0 row's sum must
   be 0, and removing a leaf subtracts its id from its neighbour's sum. *)
let rows { deg; sum; _ } =
  {
    Leaf_prune.deg;
    decode =
      (fun v d nbrs ->
        if d = 1 then nbrs.(0) <- sum.(v - 1);
        d = 1 || sum.(v - 1) = 0);
    remove =
      (fun u v ->
        if sum.(u - 1) < v then invalid_arg "Forest_protocol: negative residual sum";
        sum.(u - 1) <- sum.(u - 1) - v);
  }

let finish ~n st = if st.bad then None else Leaf_prune.reconstruct ~n ~k:1 (rows st)

(* The layout above is exactly 4 * id_bits (Bounds.forest_message_bits):
   the §III.A claim at c = 4. *)
let budget = Some { Bound_audit.b_shape = Log_n; c_max = 4.0; n_min = 1 }

let reconstruct : Graph.t option Protocol.t =
  {
    name = "forest-reconstruct";
    local;
    referee = Protocol.streaming ~init ~absorb ~finish;
    budget;
  }

(* Same messages, same prune, no incidence matrix: O(n) words at any n,
   and exactly [Option.is_some] of {!reconstruct}'s output. *)
let recognize : bool Protocol.t =
  {
    name = "forest-recognize";
    local;
    referee =
      Protocol.streaming ~init ~absorb ~finish:(fun ~n st ->
          (not st.bad)
          &&
          match Leaf_prune.run ~n ~k:1 ~trusted:(fun _ -> true) ~edge:(fun _ _ -> ()) (rows st) with
          | Complete -> true
          | Partial _ | Inconsistent -> false);
    budget;
  }

(* ---------- crash/corruption-tolerant variant ---------- *)

(* The same tables, absorbed through {!Protocol.sealed}: senders are
   honest, so an authenticated row is a true statement about the input,
   and the prune reads only the rows the guard trusts. *)
let hardened : Graph.t option Verdict.t Protocol.t =
  Protocol.sealed ~name:"forest-reconstruct+sealed" ~local ~init
    ~absorb:(fun ~n st ~id r ->
      (* Full length first, so a rejected row writes nothing. *)
      if Bit_reader.remaining r <> message_bits n then raise Message.Malformed;
      read_row ~n st ~id r;
      st)
    ~finish:(fun ~n report ~trusted st -> Leaf_prune.salvage ~n ~k:1 ~trusted (rows st) report)
