open Refnet_bits
open Refnet_graph

let message_bits ~max_degree n =
  let w = Bounds.id_bits n in
  w + (max_degree * w)

let local_row ~max_degree v =
  let n = View.n v in
  let w = Bounds.id_bits n in
  let wr = Bit_writer.create () in
  let d = View.deg v in
  if d > max_degree then begin
    (* Signal overflow in-band with the reserved degree value. *)
    Codes.write_fixed wr ~width:w 0;
    Message.of_writer wr
  end
  else begin
    Codes.write_fixed wr ~width:w (d + 1);
    View.iter_neighbors v (fun u -> Codes.write_fixed wr ~width:w u);
    Message.of_writer wr
  end

let reconstruct ~max_degree : Graph.t option Protocol.t =
  if max_degree < 0 then invalid_arg "Bounded_degree.reconstruct: negative bound";
  let local = local_row ~max_degree in
  (* Streaming referee: each message contributes its edges to a shared
     builder (edge insertion is idempotent and order-insensitive), so no
     message array is ever materialized. *)
  let init ~n = (Graph.Builder.create n, true) in
  let absorb ~n (b, ok) ~id msg =
    if not ok then (b, ok)
    else begin
      let w = Bounds.id_bits n in
      match
        let r = Message.reader msg in
        let tag = Codes.read_fixed r ~width:w in
        if tag = 0 then None
        else begin
          let d = tag - 1 in
          Some (List.init d (fun _ -> Codes.read_fixed r ~width:w))
        end
      with
      | None -> (b, false)
      | exception Bit_reader.Exhausted -> (b, false)
      | Some nbrs ->
        let ok = ref true in
        List.iter
          (fun u ->
            if u < 1 || u > n || u = id then ok := false else Graph.Builder.add_edge b id u)
          nbrs;
        (b, !ok)
    end
  in
  let finish ~n:_ (b, ok) = if ok then Some (Graph.Builder.build b) else None in
  {
    name = Printf.sprintf "bounded-degree-%d" max_degree;
    local;
    referee = Protocol.streaming ~init ~absorb ~finish;
    (* (1 + d) * id_bits <= 2 d id_bits (equality at d = 1). *)
    budget = Some { Bound_audit.b_shape = K_log_n max_degree; c_max = 2.0; n_min = 1 };
  }

(* ---------- crash/corruption-tolerant variant ---------- *)

type brow = B_unknown | B_overflow | B_nbrs of int list

type bstate = {
  rows : brow array;
  b_seen : bool array;
  mutable b_mal : int list;
  mutable b_dup : int list;
}

(* Honest adjacency rows list neighbours strictly increasing, in range,
   never the sender itself, and fill the payload exactly — anything else
   is channel damage (or a forged seal). *)
let parse_row ~max_degree ~n ~id payload =
  let w = Bounds.id_bits n in
  let r = Message.reader payload in
  let tag = Codes.read_fixed r ~width:w in
  let row =
    if tag = 0 then B_overflow
    else begin
      let d = tag - 1 in
      if d > max_degree then raise Message.Malformed;
      let prev = ref 0 in
      let nbrs =
        List.init d (fun _ ->
            let u = Codes.read_fixed r ~width:w in
            if u < 1 || u > n || u = id || u <= !prev then raise Message.Malformed;
            prev := u;
            u)
      in
      B_nbrs nbrs
    end
  in
  if Bit_reader.remaining r <> 0 then raise Message.Malformed;
  row

let hardened ~max_degree : Graph.t option Verdict.t Protocol.t =
  if max_degree < 0 then invalid_arg "Bounded_degree.hardened: negative bound";
  let init ~n =
    {
      rows = Array.make n B_unknown;
      b_seen = Array.make n false;
      b_mal = [];
      b_dup = [];
    }
  in
  let absorb ~n st ~id msg =
    if id < 1 || id > n then st.b_mal <- id :: st.b_mal
    else if st.b_seen.(id - 1) then st.b_dup <- id :: st.b_dup
    else begin
      st.b_seen.(id - 1) <- true;
      match Message.unseal ~n ~id msg with
      | None -> st.b_mal <- id :: st.b_mal
      | Some payload -> (
        match parse_row ~max_degree ~n ~id payload with
        | row -> st.rows.(id - 1) <- row
        | exception (Message.Malformed | Bit_reader.Exhausted | Invalid_argument _) ->
          st.b_mal <- id :: st.b_mal)
    end;
    st
  in
  let finish ~n st =
    let missing = ref [] in
    for id = n downto 1 do
      if not st.b_seen.(id - 1) then missing := id :: !missing
    done;
    let report =
      {
        Verdict.missing = !missing;
        malformed = List.sort_uniq Stdlib.compare st.b_mal;
        duplicated = List.sort_uniq Stdlib.compare st.b_dup;
        undetermined = [];
      }
    in
    let overflow = Array.exists (function B_overflow -> true | _ -> false) st.rows in
    let union () =
      let b = Graph.Builder.create n in
      Array.iteri
        (fun i row ->
          match row with
          | B_nbrs nbrs -> List.iter (fun u -> Graph.Builder.add_edge b (i + 1) u) nbrs
          | B_overflow | B_unknown -> ())
        st.rows;
      Graph.Builder.build b
    in
    if overflow then
      (* An authentic overflow row alone proves the fault-free answer is
         [None] — the one verdict the referee may still [Decide] under a
         faulty channel. *)
      Verdict.Decided None
    else if Verdict.channel_clean report then Verdict.Decided (Some (union ()))
    else begin
      (* Cross-check symmetry between pairs of trusted rows: honest rows
         agree on shared edges, so a one-sided claim means a forged
         seal. *)
      match
        Array.iteri
          (fun i row ->
            match row with
            | B_nbrs nbrs ->
              List.iter
                (fun u ->
                  match st.rows.(u - 1) with
                  | B_nbrs unbrs -> if not (List.mem (i + 1) unbrs) then raise Exit
                  | B_overflow | B_unknown -> ())
                nbrs
            | B_overflow | B_unknown -> ())
          st.rows
      with
      | () ->
        let undetermined = ref [] in
        for v = n downto 1 do
          if st.rows.(v - 1) = B_unknown then undetermined := v :: !undetermined
        done;
        Verdict.Degraded (Some (union ()), { report with Verdict.undetermined = !undetermined })
      | exception Exit -> Verdict.Inconclusive "authenticated messages are mutually inconsistent"
    end
  in
  {
    name = Printf.sprintf "bounded-degree-%d+sealed" max_degree;
    local = (fun v -> Message.seal ~n:(View.n v) ~id:(View.id v) (local_row ~max_degree v));
    referee = Protocol.streaming ~init ~absorb ~finish;
    budget = None;
  }

let full_information : Graph.t Protocol.t =
  let local v =
    let row = Bitvec.create (View.n v) in
    View.iter_neighbors v (fun u -> Bitvec.set row (u - 1));
    row
  in
  let init ~n = Graph.Builder.create n in
  let absorb ~n:_ b ~id row =
    Bitvec.iter_set row (fun j -> if id - 1 < j then Graph.Builder.add_edge b id (j + 1));
    b
  in
  let finish ~n:_ b = Graph.Builder.build b in
  {
    name = "full-information";
    local;
    referee = Protocol.streaming ~init ~absorb ~finish;
    (* exactly n bits: an incidence row *)
    budget = Some { Bound_audit.b_shape = Linear; c_max = 1.0; n_min = 1 };
  }
