open Refnet_bits
open Refnet_algebra
open Refnet_graph

let message_bits = Bounds.generalized_message_bits

let coord_width ~w p = (p + 2) * w

let local ~k ~n ~id ~neighbors =
  let w = Bounds.id_bits n in
  let wr = Bit_writer.create () in
  Codes.write_fixed wr ~width:w id;
  Codes.write_fixed wr ~width:w (List.length neighbors);
  let is_nbr = Array.make (n + 1) false in
  List.iter (fun u -> is_nbr.(u) <- true) neighbors;
  let non_neighbors =
    List.filter (fun u -> u <> id && not is_nbr.(u)) (List.init n (fun i -> i + 1))
  in
  let encode ids =
    (* Only the k transmitted coordinates are computed; validation still
       admits sets larger than k. *)
    Power_sum.encode ~coords:k ~k:(max k (List.length ids)) ids
  in
  let write enc =
    for p = 0 to k - 1 do
      Nat_codec.write wr ~width:(coord_width ~w p) enc.(p)
    done
  in
  write (encode neighbors);
  write (encode non_neighbors);
  Message.of_writer wr

exception Malformed

(* Streaming referee: both encoding tables allocated once at [init],
   one message decoded per absorb, malformed input poisons the state. *)
type state = {
  s_deg : int array;
  s_enc_n : Power_sum.encoding array;
  s_enc_c : Power_sum.encoding array;
  mutable s_bad : bool;
}

let init ~n =
  { s_deg = Array.make n 0; s_enc_n = Array.make n [||]; s_enc_c = Array.make n [||]; s_bad = false }

let absorb ~k ~n st ~id msg =
  let i = id - 1 in
  (try
     let w = Bounds.id_bits n in
     let r = Message.reader msg in
     if Codes.read_fixed r ~width:w <> id then raise Malformed;
     st.s_deg.(i) <- Codes.read_fixed r ~width:w;
     if st.s_deg.(i) > n - 1 then raise Malformed;
     st.s_enc_n.(i) <- Array.init k (fun p -> Nat_codec.read r ~width:(coord_width ~w p));
     st.s_enc_c.(i) <- Array.init k (fun p -> Nat_codec.read r ~width:(coord_width ~w p))
   with Malformed | Bit_reader.Exhausted -> st.s_bad <- true);
  st

let finish ~(decoder : Degeneracy_protocol.decoder) ~k ~n st =
  if st.s_bad then None
  else
    let deg = st.s_deg and enc_n = st.s_enc_n and enc_c = st.s_enc_c in
    let removed = Array.make n false in
    let remaining = ref n in
    let b = Graph.Builder.create n in
    let ok = ref true in
    (try
       while !ok && !remaining > 0 do
         (* Find a prunable vertex: sparse side or dense side. *)
         let r = !remaining in
         let pick = ref 0 in
         (try
            for v = 1 to n do
              if not removed.(v - 1) then begin
                if deg.(v - 1) <= k || deg.(v - 1) >= r - 1 - k then begin
                  pick := v;
                  raise Exit
                end
              end
            done
          with Exit -> ());
         if !pick = 0 then ok := false
         else begin
           let y = !pick in
           let d = deg.(y - 1) in
           let nbrs =
             if d <= k then decoder ~n ~deg:d enc_n.(y - 1)
             else begin
               (* Decode the complement within the remaining set and
                  invert it. *)
               match decoder ~n ~deg:(r - 1 - d) enc_c.(y - 1) with
               | None -> None
               | Some non ->
                 let keep = Array.make (n + 1) true in
                 List.iter (fun u -> keep.(u) <- false) non;
                 let nbrs = ref [] in
                 for u = n downto 1 do
                   if u <> y && (not removed.(u - 1)) && keep.(u) then nbrs := u :: !nbrs
                 done;
                 (* The decoded complement must consist of remaining
                    vertices. *)
                 if List.exists (fun u -> u = y || u < 1 || u > n || removed.(u - 1)) non
                 then None
                 else Some !nbrs
             end
           in
           match nbrs with
           | None -> ok := false
           | Some nbrs ->
             if List.length nbrs <> d then ok := false
             else begin
               let is_nbr = Array.make (n + 1) false in
               List.iter
                 (fun u ->
                   if u < 1 || u > n || u = y || removed.(u - 1) then ok := false
                   else is_nbr.(u) <- true)
                 nbrs;
               if !ok then begin
                 List.iter (fun u -> Graph.Builder.add_edge b y u) nbrs;
                 for u = 1 to n do
                   if u <> y && not removed.(u - 1) then begin
                     if is_nbr.(u) then begin
                       deg.(u - 1) <- deg.(u - 1) - 1;
                       enc_n.(u - 1) <- Power_sum.subtract enc_n.(u - 1) ~id:y ~upto:k
                     end
                     else enc_c.(u - 1) <- Power_sum.subtract enc_c.(u - 1) ~id:y ~upto:k
                   end
                 done;
                 removed.(y - 1) <- true;
                 decr remaining
               end
             end
         end
       done
     with Invalid_argument _ -> ok := false);
    if !ok then Some (Graph.Builder.build b) else None

let reconstruct ?(decoder = Degeneracy_protocol.newton_decoder) ~k () :
    Graph.t option Protocol.t =
  if k < 0 then invalid_arg "Generalized_degeneracy.reconstruct: negative k";
  {
    name = Printf.sprintf "generalized-degeneracy-%d-reconstruct" k;
    local = (fun v -> local ~k ~n:(View.n v) ~id:(View.id v) ~neighbors:(View.neighbors v));
    referee =
      Protocol.streaming ~init
        ~absorb:(fun ~n st ~id msg -> absorb ~k ~n st ~id msg)
        ~finish:(fun ~n st -> finish ~decoder ~k ~n st);
    (* (2 + k(k+3)) * id_bits <= 6 k^2 id_bits (equality at k = 1). *)
    budget = Some { Bound_audit.b_shape = K2_log_n k; c_max = 6.0; n_min = 1 };
  }

let recognize ?decoder k =
  Protocol.rename
    (Printf.sprintf "generalized-degeneracy<=%d" k)
    (Protocol.map_output Option.is_some (reconstruct ?decoder ~k ()))
