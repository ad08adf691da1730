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

exception Malformed

(* Streaming referee state: the (degree, neighbour-ID-sum) tables,
   allocated once at [init] — each absorb decodes one triple in place,
   so referee memory is O(n) words total and O(1) per message. *)
type state = { deg : int array; sum : int array; mutable bad : bool }

let init ~n = { deg = Array.make n 0; sum = Array.make n 0; bad = false }

let absorb ~n st ~id msg =
  (try
     let w = Bounds.id_bits n in
     let r = Message.reader msg in
     if Codes.read_fixed r ~width:w <> id then raise Malformed;
     let d = Codes.read_fixed r ~width:w in
     if d > n - 1 then raise Malformed;
     st.deg.(id - 1) <- d;
     st.sum.(id - 1) <- Codes.read_fixed r ~width:(2 * w)
   with Malformed | Bit_reader.Exhausted -> st.bad <- true);
  st

(* Leaf-prune over complete (degree, sum) tables; mutates them.  Each
   recovered edge is reported through [on_edge]; returns whether the
   tables were a consistent forest.  Memory beyond the tables is O(n)
   bits + the queue — in particular no [Graph.Builder] (whose n^2-bit
   incidence matrix is what caps reconstruction at moderate n; the
   recognizer below skips it and runs at n = 10^6+). *)
let prune_tables ~n ~on_edge deg sum =
  let removed = Array.make n false in
  (* Queue of candidate prune points; stale entries are skipped. *)
  let queue = Queue.create () in
  for v = 1 to n do
    if deg.(v - 1) <= 1 then Queue.add v queue
  done;
  let processed = ref 0 in
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let v = Queue.pop queue in (* lint: allow exn-escape -- pop guarded by is_empty in the loop condition *)
    if not removed.(v - 1) then begin
      if deg.(v - 1) = 1 then begin
        let u = sum.(v - 1) in
        if u < 1 || u > n || u = v || removed.(u - 1) || deg.(u - 1) = 0 then ok := false
        else begin
          on_edge v u;
          deg.(u - 1) <- deg.(u - 1) - 1;
          sum.(u - 1) <- sum.(u - 1) - v;
          if deg.(u - 1) <= 1 then Queue.add u queue
        end
      end
      else if deg.(v - 1) <> 0 || sum.(v - 1) <> 0 then ok := false;
      if !ok then begin
        removed.(v - 1) <- true;
        incr processed
      end
    end
  done;
  !ok && !processed = n

let decode_tables ~n deg sum =
  let b = Graph.Builder.create n in
  if prune_tables ~n ~on_edge:(fun v u -> Graph.Builder.add_edge b v u) deg sum then
    Some (Graph.Builder.build b)
  else None

let finish ~n { deg; sum; bad } = if bad then None else decode_tables ~n deg sum

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

(* Same messages, same prune, no reconstruction: the recognizer's
   referee never allocates an incidence matrix, so its peak memory is
   the two int tables — O(n) words at any n.  Output is exactly
   [Option.is_some] of {!reconstruct}'s by construction ([prune_tables]
   is the shared decision procedure). *)
let recognize : bool Protocol.t =
  {
    name = "forest-recognize";
    local;
    referee =
      Protocol.streaming ~init ~absorb
        ~finish:(fun ~n { deg; sum; bad } ->
          (not bad) && prune_tables ~n ~on_edge:(fun _ _ -> ()) deg sum);
    budget;
  }

(* ---------- crash/corruption-tolerant variant ---------- *)

(* Same tables plus per-id channel bookkeeping.  [trusted] marks rows
   that survived {!Message.unseal} — in the honest-senders fault model
   an authenticated row is a true statement about the input. *)
type hstate = {
  hdeg : int array;
  hsum : int array;
  trusted : bool array;
  hseen : bool array;
  mutable hmal : int list;
  mutable hdup : int list;
}

let hinit ~n =
  {
    hdeg = Array.make n 0;
    hsum = Array.make n 0;
    trusted = Array.make n false;
    hseen = Array.make n false;
    hmal = [];
    hdup = [];
  }

let habsorb ~n st ~id msg =
  if id < 1 || id > n then st.hmal <- id :: st.hmal
  else if st.hseen.(id - 1) then st.hdup <- id :: st.hdup
  else begin
    st.hseen.(id - 1) <- true;
    match Message.unseal ~n ~id msg with
    | None -> st.hmal <- id :: st.hmal
    | Some payload -> (
      match
        let w = Bounds.id_bits n in
        if Message.bits payload <> message_bits n then raise Malformed;
        let r = Message.reader payload in
        if Codes.read_fixed r ~width:w <> id then raise Malformed;
        let d = Codes.read_fixed r ~width:w in
        if d > n - 1 then raise Malformed;
        (d, Codes.read_fixed r ~width:(2 * w))
      with
      | d, s ->
        st.hdeg.(id - 1) <- d;
        st.hsum.(id - 1) <- s;
        st.trusted.(id - 1) <- true
      | exception (Malformed | Bit_reader.Exhausted) -> st.hmal <- id :: st.hmal)
  end;
  st

(* Leaf-prune restricted to trusted rows.  Every edge added is asserted
   by an authentic degree-1 row, so under crash-only plans the result is
   exactly the set of input edges incident to a resolved node; a row
   pointing at an already-exhausted partner means the authenticated rows
   are mutually inconsistent (impossible for honest rows on any simple
   graph), so we refuse rather than guess. *)
let partial_prune ~n ~trusted deg sum =
  let resolved = Array.make n false in
  let b = Graph.Builder.create n in
  let queue = Queue.create () in
  for v = 1 to n do
    if trusted.(v - 1) && deg.(v - 1) <= 1 then Queue.add v queue
  done;
  match
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in (* lint: allow exn-escape -- pop guarded by is_empty in the loop condition *)
      if not resolved.(v - 1) then begin
        if deg.(v - 1) = 1 then begin
          let u = sum.(v - 1) in
          if u < 1 || u > n || u = v then raise Exit;
          if trusted.(u - 1) then begin
            if resolved.(u - 1) || deg.(u - 1) = 0 then raise Exit;
            Graph.Builder.add_edge b v u;
            deg.(u - 1) <- deg.(u - 1) - 1;
            sum.(u - 1) <- sum.(u - 1) - v;
            if sum.(u - 1) < 0 then raise Exit;
            if deg.(u - 1) <= 1 then Queue.add u queue
          end
          else Graph.Builder.add_edge b v u
        end
        else if sum.(v - 1) <> 0 then raise Exit;
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

let hfinish ~n st =
  let missing = ref [] in
  for id = n downto 1 do
    if not st.hseen.(id - 1) then missing := id :: !missing
  done;
  let report =
    {
      Verdict.missing = !missing;
      malformed = List.sort_uniq Stdlib.compare st.hmal;
      duplicated = List.sort_uniq Stdlib.compare st.hdup;
      undetermined = [];
    }
  in
  if Verdict.channel_clean report then Verdict.Decided (decode_tables ~n st.hdeg st.hsum)
  else
    match partial_prune ~n ~trusted:st.trusted st.hdeg st.hsum with
    | None -> Verdict.Inconclusive "authenticated messages are mutually inconsistent"
    | Some (g, undetermined) -> Verdict.Degraded (Some g, { report with Verdict.undetermined })

let hardened : Graph.t option Verdict.t Protocol.t =
  {
    name = "forest-reconstruct+sealed";
    local = (fun v -> Message.seal ~n:(View.n v) ~id:(View.id v) (local v));
    referee = Protocol.streaming ~init:hinit ~absorb:habsorb ~finish:hfinish;
    budget = None;
  }

let hardened_message_bits n = message_bits n + Message.digest_bits
