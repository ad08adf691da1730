open Refnet_graph

let bipartiteness_oracle : bool Protocol.t =
  Protocol.rename "bipartiteness-oracle"
    (Protocol.map_output Bipartite.is_bipartite Bounded_degree.full_information)

let odd_cycle_gadget g s t =
  let n = Graph.order g in
  if s < 1 || s > n || t < 1 || t > n || s = t then
    invalid_arg "Bipartite_reduction.odd_cycle_gadget: bad vertex pair";
  Graph.add_edges (Graph.add_vertices g 2) [ (s, n + 1); (n + 1, n + 2); (n + 2, t) ]

let connectivity ~(oracle : bool Protocol.t) ~left ~right : bool Protocol.t =
  let local v =
    let n = View.n v in
    let id = View.id v in
    let neighbors = View.neighbors v in
    let size = n + 2 in
    let gview nbrs = View.make ~n:size ~id ~neighbors:nbrs in
    (* Three shapes, as in Algorithm 2: unchanged, playing s (sees n+1),
       playing t (sees n+2). *)
    let m0 = oracle.local (gview neighbors) in
    let ms = oracle.local (gview (neighbors @ [ n + 1 ])) in
    let mt = oracle.local (gview (neighbors @ [ n + 2 ])) in
    (* Degree travels along for the isolated-vertex corner case. *)
    let w = Refnet_bits.Bit_writer.create () in
    Refnet_bits.Codes.write_nonneg w (List.length neighbors);
    Message.concat [ Message.of_writer w; Message.bundle [ m0; ms; mt ] ]
  in
  let global ~n msgs =
    let size = n + 2 in
    let parse i =
      let r = Message.reader msgs.(i - 1) in
      let deg = Refnet_bits.Codes.read_nonneg r in
      (* An array, not a list: [part] is read per membership probe.
         Framed parts must be decoded left to right, so spell the reads
         out rather than lean on Array.init's traversal order. *)
      let m0 = Message.read_framed r in
      let ms = Message.read_framed r in
      let mt = Message.read_framed r in
      (deg, [| m0; ms; mt |])
    in
    let parsed = Parallel.init n (fun i -> parse (i + 1)) in
    let deg i = fst parsed.(i - 1) in
    let part i j = (snd parsed.(i - 1)).(j) in
    (* Same-component query through the bipartiteness oracle: feed its
       streaming referee directly, fabricating the two gadget vertices'
       messages on the fly. *)
    let connected s t =
      let feed = ref (Protocol.start oracle.referee ~n:size) in
      for i = 1 to n do
        feed :=
          Protocol.feed !feed ~id:i
            (if i = s then part i 1 else if i = t then part i 2 else part i 0)
      done;
      feed :=
        Protocol.feed !feed ~id:(n + 1)
          (oracle.local (View.make ~n:size ~id:(n + 1) ~neighbors:[ s; n + 2 ]));
      feed :=
        Protocol.feed !feed ~id:(n + 2)
          (oracle.local (View.make ~n:size ~id:(n + 2) ~neighbors:[ t; n + 1 ]));
      (* Bipartite gadget <=> s,t disconnected. *)
      not (Protocol.finish !feed)
    in
    match (left, right) with
    | [], [] -> true
    | [], [ _ ] | [ _ ], [] -> true
    | _ ->
      if n >= 2 && Array.exists (fun (d, _) -> d = 0) parsed then false
      else begin
        let class_connected = function
          | [] | [ _ ] -> true
          | anchor :: rest ->
            (* Each membership query is an independent gadget simulation;
               fan them out like the other reduction sweeps. *)
            Array.for_all Fun.id
              (Parallel.map_array (fun v -> connected anchor v) (Array.of_list rest))
        in
        (* No isolated vertices, so if both classes are internally single
           components, any edge (there is one: degrees are positive)
           bridges them. *)
        ignore deg;
        class_connected left && class_connected right
      end
  in
  {
    name = "delta-connectivity[" ^ oracle.name ^ "]";
    local;
    referee = Protocol.batch global;
    budget = None;
  }
