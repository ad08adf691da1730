open Refnet_bits
open Refnet_bigint
open Refnet_algebra
open Refnet_graph

type decoder = n:int -> deg:int -> Power_sum.encoding -> int list option

let newton_decoder : decoder = fun ~n ~deg enc -> Power_sum.decode ~n ~deg enc

let table_decoder table : decoder =
 fun ~n:_ ~deg enc -> Power_sum.Table.lookup table enc ~deg

let message_bits = Bounds.degeneracy_message_bits

(* Power sum b_p is at most n * n^p = n^(p+1): width (p+1) * id_bits. *)
let coord_width ~w p = (p + 2) * w
(* p is 0-based here: coordinate p holds sums of (p+1)-th powers. *)

type layout = Fixed | Compact

let local ~layout ~k ~n ~id ~neighbors =
  let w = Bounds.id_bits n in
  let wr = Bit_writer.create () in
  Codes.write_fixed wr ~width:w id;
  (* Validation allows any degree, but only the k transmitted coordinates
     are computed — a hub of degree d no longer pays for d power sums. *)
  let enc = Power_sum.encode ~coords:k ~k:(max k (List.length neighbors)) neighbors in
  (match layout with
  | Fixed ->
    Codes.write_fixed wr ~width:w (List.length neighbors);
    for p = 0 to k - 1 do
      Nat_codec.write wr ~width:(coord_width ~w p) enc.(p)
    done
  | Compact ->
    Codes.write_nonneg wr (List.length neighbors);
    for p = 0 to k - 1 do
      let bits = Refnet_bigint.Nat.num_bits enc.(p) in
      Codes.write_nonneg wr bits;
      Nat_codec.write wr ~width:bits enc.(p)
    done);
  Message.of_writer wr

(* Streaming referee state: the (degree, power-sum encoding) tables,
   allocated once at [init]; each absorb decodes one message into its
   slot.  A malformed message poisons the state instead of raising, so
   the referee tolerates any absorb order. *)
type state = { s_deg : int array; s_enc : Power_sum.encoding array; mutable s_bad : bool }

let init ~n = { s_deg = Array.make n 0; s_enc = Array.make n [||]; s_bad = false }

(* Decode one (id echo, degree, k power sums) row; raises
   [Message.Malformed] on any inconsistency with the declared sender and
   size. *)
let parse ~layout ~k ~n ~id r =
  let w = Bounds.id_bits n in
  if Codes.read_fixed r ~width:w <> id then raise Message.Malformed;
  match layout with
  | Fixed ->
    let d = Codes.read_fixed r ~width:w in
    if d > n - 1 then raise Message.Malformed;
    (d, Array.init k (fun p -> Nat_codec.read r ~width:(coord_width ~w p)))
  | Compact ->
    let d = Codes.read_nonneg r in
    if d < 0 || d > n - 1 then raise Message.Malformed;
    ( d,
      Array.init k (fun p ->
          let bits = Codes.read_nonneg r in
          if bits < 0 || bits > coord_width ~w p then raise Message.Malformed;
          Nat_codec.read r ~width:bits) )

let store st ~id (d, enc) =
  st.s_deg.(id - 1) <- d;
  st.s_enc.(id - 1) <- enc

let absorb ~layout ~k ~n st ~id msg =
  (try store st ~id (parse ~layout ~k ~n ~id (Message.reader msg))
   with Message.Malformed | Bit_reader.Exhausted -> st.s_bad <- true);
  st

(* The rows as Algorithm 4 reads them ({!Leaf_prune}): degree d decodes
   from the first d power sums (b_1 is the neighbour when d = 1), and a
   removal subtracts powers ([Invalid_argument] below zero). *)
let rows ~(decoder : decoder) ~k ~n { s_deg; s_enc; _ } =
  {
    Leaf_prune.deg = s_deg;
    decode =
      (fun v d nbrs ->
        let e = s_enc.(v - 1) in
        let us =
          if d = 1 then Option.map (fun u -> [ u ]) (Nat.to_int_opt e.(0)) else decoder ~n ~deg:d e
        in
        match us with
        | Some us when List.length us = d ->
          List.iteri (fun i u -> nbrs.(i) <- u) us;
          true
        | Some _ | None -> false);
    remove = (fun u v -> s_enc.(u - 1) <- Power_sum.subtract s_enc.(u - 1) ~id:v ~upto:k);
  }

let reconstruct ?(decoder = newton_decoder) ?(layout = Fixed) ~k () :
    Graph.t option Protocol.t =
  if k < 1 then invalid_arg "Degeneracy_protocol.reconstruct: k must be positive";
  {
    name =
      Printf.sprintf "degeneracy-%d-reconstruct%s" k
        (match layout with Fixed -> "" | Compact -> "-compact");
    local =
      (fun v -> local ~layout ~k ~n:(View.n v) ~id:(View.id v) ~neighbors:(View.neighbors v));
    referee =
      Protocol.streaming ~init
        ~absorb:(fun ~n st ~id msg -> absorb ~layout ~k ~n st ~id msg)
        ~finish:(fun ~n st ->
          if st.s_bad then None else Leaf_prune.reconstruct ~n ~k (rows ~decoder ~k ~n st));
    (* Theorem 5.  The fixed layout is (2 + k(k+3)/2) * id_bits, and
       (2 + k(k+3)/2) / k^2 <= 4 for every k >= 1 (equality at k = 1).
       The compact layout gamma-codes the power sums, which can exceed
       the fixed layout on dense small graphs; 9 covers its worst
       framing overhead. *)
    budget =
      Some
        {
          Bound_audit.b_shape = K2_log_n k;
          c_max = (match layout with Fixed -> 4.0 | Compact -> 9.0);
          n_min = 1;
        };
  }

(* ---------- crash/corruption-tolerant variant ---------- *)

(* The plain tables, absorbed through {!Protocol.sealed}; the prune
   reads only the rows the guard trusts. *)
let hardened ?(decoder = newton_decoder) ?(layout = Fixed) ~k () :
    Graph.t option Verdict.t Protocol.t =
  if k < 1 then invalid_arg "Degeneracy_protocol.hardened: k must be positive";
  let p = reconstruct ~decoder ~layout ~k () in
  Protocol.sealed ~name:(p.name ^ "+sealed") ~local:p.local ~init
    ~absorb:(fun ~n st ~id r ->
      let row = parse ~layout ~k ~n ~id r in
      if Bit_reader.remaining r <> 0 then raise Message.Malformed;
      store st ~id row;
      st)
    ~finish:(fun ~n report ~trusted st ->
      Leaf_prune.salvage ~n ~k ~trusted (rows ~decoder ~k ~n st) report)
