open Refnet_bits
open Refnet_bigint
open Refnet_algebra
open Refnet_graph

type decoder = n:int -> deg:int -> Power_sum.encoding -> int list option

let newton_decoder : decoder = fun ~n ~deg enc -> Power_sum.decode ~n ~deg enc

let table_decoder table : decoder =
 fun ~n:_ ~deg enc -> Power_sum.Table.lookup table enc ~deg

let message_bits = Bounds.degeneracy_message_bits

let local_time_operations ~k n = k * n

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

exception Malformed

(* Streaming referee state: the (degree, power-sum encoding) tables,
   allocated once at [init]; each absorb decodes one message into its
   slot.  A malformed message poisons the state instead of raising, so
   the referee tolerates any absorb order. *)
type state = { s_deg : int array; s_enc : Power_sum.encoding array; mutable s_bad : bool }

let init ~n = { s_deg = Array.make n 0; s_enc = Array.make n [||]; s_bad = false }

(* Decode one (id echo, degree, k power sums) row; raises [Malformed] on
   any inconsistency with the declared sender and size. *)
let parse ~layout ~k ~n ~id r =
  let w = Bounds.id_bits n in
  if Codes.read_fixed r ~width:w <> id then raise Malformed;
  match layout with
  | Fixed ->
    let d = Codes.read_fixed r ~width:w in
    if d > n - 1 then raise Malformed;
    (d, Array.init k (fun p -> Nat_codec.read r ~width:(coord_width ~w p)))
  | Compact ->
    let d = Codes.read_nonneg r in
    if d < 0 || d > n - 1 then raise Malformed;
    ( d,
      Array.init k (fun p ->
          let bits = Codes.read_nonneg r in
          if bits < 0 || bits > coord_width ~w p then raise Malformed;
          Nat_codec.read r ~width:bits) )

let absorb ~layout ~k ~n st ~id msg =
  let i = id - 1 in
  (try
     let d, enc = parse ~layout ~k ~n ~id (Message.reader msg) in
     st.s_deg.(i) <- d;
     st.s_enc.(i) <- enc
   with Malformed | Bit_reader.Exhausted -> st.s_bad <- true);
  st

let finish ~(decoder : decoder) ~k ~n st =
  if st.s_bad then None
  else
    let deg = st.s_deg and enc = st.s_enc in
    let removed = Array.make n false in
    let b = Graph.Builder.create n in
    (* Queue of vertices whose degree dropped to at most k; entries may be
       stale, the degree is rechecked on pop. *)
    let queue = Queue.create () in
    for v = 1 to n do
      if deg.(v - 1) <= k then Queue.add v queue
    done;
    let processed = ref 0 in
    let ok = ref true in
    (try
       while !ok && not (Queue.is_empty queue) do
         let v = Queue.pop queue in (* lint: allow exn-escape -- pop guarded by is_empty in the loop condition *)
         if not removed.(v - 1) then begin
           (* A queued vertex's degree only decreases; it is still <= k. *)
           let d = deg.(v - 1) in
           let nbrs =
             if d = 0 then Some []
             else if d = 1 then begin
               (* Fast path: b_1 is the single neighbour's identifier. *)
               match Nat.to_int_opt enc.(v - 1).(0) with
               | Some u when u >= 1 && u <= n -> Some [ u ]
               | _ -> None
             end
             else decoder ~n ~deg:d enc.(v - 1)
           in
           match nbrs with
           | None -> ok := false
           | Some nbrs ->
             List.iter
               (fun u ->
                 if u < 1 || u > n || u = v || removed.(u - 1) || deg.(u - 1) = 0 then
                   ok := false
                 else begin
                   Graph.Builder.add_edge b v u;
                   deg.(u - 1) <- deg.(u - 1) - 1;
                   enc.(u - 1) <- Power_sum.subtract enc.(u - 1) ~id:v ~upto:k;
                   if deg.(u - 1) <= k then Queue.add u queue
                 end)
               nbrs;
             if !ok then begin
               removed.(v - 1) <- true;
               incr processed
             end
         end
       done
     with Invalid_argument _ -> ok := false);
    if !ok && !processed = n then Some (Graph.Builder.build b) else None

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
        ~finish:(fun ~n st -> finish ~decoder ~k ~n st);
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

type hstate = {
  g_deg : int array;
  g_enc : Power_sum.encoding array;
  g_trusted : bool array;
  g_seen : bool array;
  mutable g_mal : int list;
  mutable g_dup : int list;
}

let hinit ~n =
  {
    g_deg = Array.make n 0;
    g_enc = Array.make n [||];
    g_trusted = Array.make n false;
    g_seen = Array.make n false;
    g_mal = [];
    g_dup = [];
  }

let habsorb ~layout ~k ~n st ~id msg =
  if id < 1 || id > n then st.g_mal <- id :: st.g_mal
  else if st.g_seen.(id - 1) then st.g_dup <- id :: st.g_dup
  else begin
    st.g_seen.(id - 1) <- true;
    match Message.unseal ~n ~id msg with
    | None -> st.g_mal <- id :: st.g_mal
    | Some payload -> (
      match
        let r = Message.reader payload in
        let row = parse ~layout ~k ~n ~id r in
        if Bit_reader.remaining r <> 0 then raise Malformed;
        row
      with
      | d, enc ->
        st.g_deg.(id - 1) <- d;
        st.g_enc.(id - 1) <- enc;
        st.g_trusted.(id - 1) <- true
      | exception (Malformed | Bit_reader.Exhausted | Invalid_argument _) ->
        st.g_mal <- id :: st.g_mal)
  end;
  st

(* The Algorithm 4 prune restricted to authenticated rows.  Every edge
   recorded is asserted by an authentic row of residual degree <= k, so
   the output is sound; ids whose row never resolved are reported
   undetermined.  A trusted row that fails to decode, or that contradicts
   another trusted row, is impossible for honest senders — forged seal —
   so the referee refuses. *)
let partial_decode ~(decoder : decoder) ~k ~n st =
  let deg = st.g_deg and enc = st.g_enc and trusted = st.g_trusted in
  let resolved = Array.make n false in
  let b = Graph.Builder.create n in
  let queue = Queue.create () in
  for v = 1 to n do
    if trusted.(v - 1) && deg.(v - 1) <= k then Queue.add v queue
  done;
  match
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in (* lint: allow exn-escape -- pop guarded by is_empty in the loop condition *)
      if not resolved.(v - 1) then begin
        let d = deg.(v - 1) in
        let nbrs =
          if d = 0 then Some []
          else if d = 1 then begin
            match Nat.to_int_opt enc.(v - 1).(0) with
            | Some u when u >= 1 && u <= n -> Some [ u ]
            | _ -> None
          end
          else decoder ~n ~deg:d enc.(v - 1)
        in
        match nbrs with
        | None -> raise Exit
        | Some nbrs ->
          List.iter
            (fun u ->
              if u < 1 || u > n || u = v || Graph.Builder.has_edge b v u then raise Exit;
              if trusted.(u - 1) then begin
                if resolved.(u - 1) || deg.(u - 1) = 0 then raise Exit;
                Graph.Builder.add_edge b v u;
                deg.(u - 1) <- deg.(u - 1) - 1;
                enc.(u - 1) <- Power_sum.subtract enc.(u - 1) ~id:v ~upto:k;
                if deg.(u - 1) <= k then Queue.add u queue
              end
              else Graph.Builder.add_edge b v u)
            nbrs;
          resolved.(v - 1) <- true
      end
    done
  with
  | () ->
    let undetermined = ref [] in
    for v = n downto 1 do
      if not resolved.(v - 1) then undetermined := v :: !undetermined
    done;
    Some (Graph.Builder.build b, !undetermined)
  | exception (Exit | Invalid_argument _) -> None

let hfinish ~(decoder : decoder) ~k ~n st =
  let missing = ref [] in
  for id = n downto 1 do
    if not st.g_seen.(id - 1) then missing := id :: !missing
  done;
  let report =
    {
      Verdict.missing = !missing;
      malformed = List.sort_uniq Stdlib.compare st.g_mal;
      duplicated = List.sort_uniq Stdlib.compare st.g_dup;
      undetermined = [];
    }
  in
  if Verdict.channel_clean report then
    Verdict.Decided (finish ~decoder ~k ~n { s_deg = st.g_deg; s_enc = st.g_enc; s_bad = false })
  else
    match partial_decode ~decoder ~k ~n st with
    | None -> Verdict.Inconclusive "authenticated messages are mutually inconsistent"
    | Some (g, undetermined) -> Verdict.Degraded (Some g, { report with Verdict.undetermined })

let hardened ?(decoder = newton_decoder) ?(layout = Fixed) ~k () :
    Graph.t option Verdict.t Protocol.t =
  if k < 1 then invalid_arg "Degeneracy_protocol.hardened: k must be positive";
  {
    name =
      Printf.sprintf "degeneracy-%d-reconstruct%s+sealed" k
        (match layout with Fixed -> "" | Compact -> "-compact");
    local =
      (fun v ->
        let n = View.n v and id = View.id v in
        Message.seal ~n ~id (local ~layout ~k ~n ~id ~neighbors:(View.neighbors v)));
    referee =
      Protocol.streaming ~init:hinit
        ~absorb:(fun ~n st ~id msg -> habsorb ~layout ~k ~n st ~id msg)
        ~finish:(fun ~n st -> hfinish ~decoder ~k ~n st);
    budget = None;
  }
