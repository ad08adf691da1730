open Refnet_bits
open Refnet_graph

let owned_edges (view : Coalition.view) =
  let members = view.Coalition.members in
  let member = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace member m ()) members;
  let is_member v = Hashtbl.mem member v in
  List.concat_map
    (fun (m, nbrs) ->
      List.filter_map
        (fun u ->
          let lo = min m u and hi = max m u in
          (* Edge owned here iff its smaller endpoint is a member; when
             both endpoints are members, let the smaller endpoint's entry
             report it so it is listed once. *)
          if is_member lo then if m = lo then Some (lo, hi) else None else None)
        nbrs)
    view.Coalition.neighborhoods

let spanning_forest_messages ~n (view : Coalition.view) =
  let forest = Spanning.forest_of_edges ~n (owned_edges view) in
  let members = Array.of_list view.Coalition.members in
  let count = Array.length members in
  if count = 0 then []
  else begin
    let w = Bounds.id_bits n in
    let writers = Array.init count (fun _ -> Bit_writer.create ()) in
    let shares = Array.make count [] in
    List.iteri (fun i e -> shares.(i mod count) <- e :: shares.(i mod count)) forest;
    Array.iteri
      (fun i share ->
        Codes.write_nonneg writers.(i) (List.length share);
        List.iter
          (fun (u, v) ->
            Codes.write_fixed writers.(i) ~width:w u;
            Codes.write_fixed writers.(i) ~width:w v)
          share)
      shares;
    Array.to_list (Array.mapi (fun i m -> (m, Message.of_writer writers.(i))) members)
  end

let decide : bool Coalition.t =
  let local ~n view = spanning_forest_messages ~n view in
  (* Streaming referee: a union-find over the vertices is the whole
     state — each absorbed message's forest-edge share is unioned in on
     the spot, so referee memory stays O(n) words with no edge list and
     no rebuilt graph.  Edge insertion commutes, so any arrival order
     yields the same component count. *)
  let init ~n = (Union_find.create (max n 1), true) in
  let absorb ~n (uf, ok) ~id:_ msg =
    let w = Bounds.id_bits n in
    let ok = ref ok in
    (try
       let r = Message.reader msg in
       let count = Codes.read_nonneg r in
       for _ = 1 to count do
         let u = Codes.read_fixed r ~width:w in
         let v = Codes.read_fixed r ~width:w in
         if u < 1 || u > n || v < 1 || v > n || u = v then ok := false
         else ignore (Union_find.union uf (u - 1) (v - 1))
       done
     with Bit_reader.Exhausted -> ());
    (uf, !ok)
  in
  let finish ~n (uf, ok) = ok && (n = 0 || Union_find.count uf <= 1) in
  {
    name = "coalition-connectivity";
    local;
    referee = Protocol.streaming ~init ~absorb ~finish;
    (* {!per_node_bound}: roughly 2 * ceil((n-1)/(n/k)) * id_bits plus a
       header, which peaks at small n and uneven parts; 6 covers every
       partition the CLI can build once n >= 4. *)
    budget = (fun ~parts -> Some { Bound_audit.b_shape = K_log_n parts; c_max = 6.0; n_min = 4 });
  }

(* ---------- crash/corruption-tolerant variant ---------- *)

(* Fully parse an edge-share payload before unioning anything: an
   authentic share never fails these checks, so a mid-message failure
   means a forged seal and none of its edges can be believed. *)
let parse_share ~n r =
  let w = Bounds.id_bits n in
  let count = Codes.read_nonneg r in
  if count < 0 || count * 2 * w > Bit_reader.remaining r then raise Message.Malformed;
  let edges =
    List.init count (fun _ ->
        let u = Codes.read_fixed r ~width:w in
        let v = Codes.read_fixed r ~width:w in
        if u < 1 || u > n || v < 1 || v > n || u = v then raise Message.Malformed;
        (u, v))
  in
  if Bit_reader.remaining r <> 0 then raise Message.Malformed;
  edges

let hardened : bool Verdict.t Coalition.t =
  let local ~n view =
    List.map (fun (id, m) -> (id, Message.seal ~n ~id m)) (spanning_forest_messages ~n view)
  in
  (* The state is the union-find; the seal check and the channel
     bookkeeping are {!Protocol.sealed_referee}'s. *)
  let init ~n = Union_find.create (max n 1) in
  let absorb ~n uf ~id:_ r =
    List.iter (fun (u, v) -> ignore (Union_find.union uf (u - 1) (v - 1))) (parse_share ~n r);
    uf
  in
  let finish ~n report ~trusted:_ uf =
    let connected = n = 0 || Union_find.count uf <= 1 in
    if Verdict.channel_clean report then Verdict.Decided connected
    else if connected then
      (* Surviving shares carry only true edges, so if they already
         connect the graph, it is connected — the lost shares could only
         have added more edges. *)
      Verdict.Degraded (true, report)
    else
      Verdict.Inconclusive "lost edge shares may hide the connecting edges"
  in
  {
    Coalition.name = "coalition-connectivity+sealed";
    local;
    referee = Protocol.sealed_referee ~init ~absorb ~finish;
    budget = (fun ~parts:_ -> None);
  }

let per_node_bound ~n ~parts =
  let w = Bounds.id_bits n in
  if n = 0 then 0
  else begin
    let part_size = max 1 (n / parts) in
    let forest_edges = n - 1 in
    let per_member = (forest_edges + part_size - 1) / part_size in
    (* count prefix (gamma code of e+1 <= 2 log(e) + 1) + e edges. *)
    ((2 * Bounds.id_bits (per_member + 1)) + 1) + (per_member * 2 * w)
  end
