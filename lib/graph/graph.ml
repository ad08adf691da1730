open Refnet_bits

type t = { n : int; adj : Bitvec.t array; nbrs : int array array; m : int }
(* adj.(v - 1) is the incidence vector of N(v); nbrs.(v - 1) its sorted
   list form, precomputed because every algorithm iterates neighbourhoods. *)

let check g v name =
  if v < 1 || v > g.n then invalid_arg ("Graph." ^ name ^ ": vertex out of range")

module Builder = struct
  type t = { n : int; adj : Bitvec.t array; mutable m : int }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative order";
    { n; adj = Array.init n (fun _ -> Bitvec.create n); m = 0 }

  let check b v =
    if v < 1 || v > b.n then invalid_arg "Graph.Builder: vertex out of range"

  let has_edge b u v =
    check b u;
    check b v;
    u <> v && Bitvec.get b.adj.(u - 1) (v - 1)

  let add_edge b u v =
    check b u;
    check b v;
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    if not (Bitvec.get b.adj.(u - 1) (v - 1)) then begin
      Bitvec.set b.adj.(u - 1) (v - 1);
      Bitvec.set b.adj.(v - 1) (u - 1);
      b.m <- b.m + 1
    end

  let build b =
    let adj = Array.map Bitvec.copy b.adj in
    (* Fill each neighbour array directly from its incidence row: size it
       by popcount, then write vertices in place during one indexed scan
       of the set bits — no intermediate lists. *)
    let nbrs =
      Array.map
        (fun row ->
          let out = Array.make (Bitvec.popcount row) 0 in
          let idx = ref 0 in
          Bitvec.iter_set row (fun i ->
              out.(!idx) <- i + 1;
              incr idx);
          out)
        adj
    in
    { n = b.n; adj; nbrs; m = b.m }
end

let empty n = Builder.build (Builder.create n)

let of_edges n edge_list =
  let b = Builder.create n in
  List.iter (fun (u, v) -> Builder.add_edge b u v) edge_list;
  Builder.build b

let order g = g.n
let size g = g.m

let has_edge g u v =
  check g u "has_edge";
  check g v "has_edge";
  u <> v && Bitvec.get g.adj.(u - 1) (v - 1)

let degree g v =
  check g v "degree";
  Array.length g.nbrs.(v - 1)

let neighbors g v =
  check g v "neighbors";
  Array.to_list g.nbrs.(v - 1)

let neighbors_row g v =
  check g v "neighbors_row";
  g.nbrs.(v - 1)

let iter_neighbors g v f =
  check g v "iter_neighbors";
  let row = g.nbrs.(v - 1) in
  for i = 0 to Array.length row - 1 do
    f (Array.unsafe_get row i) (* lint: allow referee-totality -- i < length row by the loop bound; BFS hot path *)
  done

let fold_neighbors g v init f =
  check g v "fold_neighbors";
  let row = g.nbrs.(v - 1) in
  let acc = ref init in
  for i = 0 to Array.length row - 1 do
    acc := f !acc (Array.unsafe_get row i) (* lint: allow referee-totality -- i < length row by the loop bound; BFS hot path *)
  done;
  !acc

let neighborhood g v =
  check g v "neighborhood";
  g.adj.(v - 1)

let vertices g = List.init g.n (fun i -> i + 1)

let iter_edges g f =
  for u = 1 to g.n do
    Array.iter (fun v -> if u < v then f u v) g.nbrs.(u - 1)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let fold_vertices g init f =
  let acc = ref init in
  for v = 1 to g.n do
    acc := f !acc v
  done;
  !acc

let max_degree g = fold_vertices g 0 (fun acc v -> max acc (degree g v))

let min_degree g =
  if g.n = 0 then 0 else fold_vertices g max_int (fun acc v -> min acc (degree g v))

let degree_sequence g =
  List.sort (fun a b -> Stdlib.compare b a) (List.map (degree g) (vertices g))

let equal g h =
  g.n = h.n
  &&
  let rec go i = i >= g.n || (Bitvec.equal g.adj.(i) h.adj.(i) && go (i + 1)) in
  go 0

let complement g =
  let b = Builder.create g.n in
  for u = 1 to g.n do
    for v = u + 1 to g.n do
      if not (has_edge g u v) then Builder.add_edge b u v
    done
  done;
  Builder.build b

let induced g vs =
  List.iter (fun v -> check g v "induced") vs;
  let sorted = List.sort_uniq Stdlib.compare vs in
  if List.length sorted <> List.length vs then invalid_arg "Graph.induced: repeated vertex";
  let old_of_new = Array.of_list vs in
  let new_of_old = Array.make g.n 0 in
  Array.iteri (fun i v -> new_of_old.(v - 1) <- i + 1) old_of_new;
  let b = Builder.create (Array.length old_of_new) in
  iter_edges g (fun u v ->
      let u' = new_of_old.(u - 1) and v' = new_of_old.(v - 1) in
      if u' > 0 && v' > 0 then Builder.add_edge b u' v');
  (Builder.build b, old_of_new)

let remove_vertex g v =
  check g v "remove_vertex";
  induced g (List.filter (fun u -> u <> v) (vertices g))

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: wrong length";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 1 || p > g.n || seen.(p - 1) then invalid_arg "Graph.relabel: not a permutation";
      seen.(p - 1) <- true)
    perm;
  let b = Builder.create g.n in
  iter_edges g (fun u v -> Builder.add_edge b perm.(u - 1) perm.(v - 1));
  Builder.build b

let disjoint_union g h =
  let b = Builder.create (g.n + h.n) in
  iter_edges g (fun u v -> Builder.add_edge b u v);
  iter_edges h (fun u v -> Builder.add_edge b (u + g.n) (v + g.n));
  Builder.build b

let add_vertices g m_extra =
  if m_extra < 0 then invalid_arg "Graph.add_vertices: negative count";
  let b = Builder.create (g.n + m_extra) in
  iter_edges g (fun u v -> Builder.add_edge b u v);
  Builder.build b

let add_edges g extra =
  let b = Builder.create g.n in
  iter_edges g (fun u v -> Builder.add_edge b u v);
  List.iter (fun (u, v) -> Builder.add_edge b u v) extra;
  Builder.build b

let is_subgraph g h =
  g.n = h.n
  &&
  let ok = ref true in
  iter_edges g (fun u v -> if not (has_edge h u v) then ok := false);
  !ok

let pp fmt g =
  Format.fprintf fmt "@[<h>graph(n=%d, m=%d: " g.n g.m;
  iter_edges g (fun u v -> Format.fprintf fmt "%d-%d " u v);
  Format.fprintf fmt ")@]"
