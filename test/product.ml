(* Graph products, as structural oracles for the generators
   ([grid w h = path w □ path h], tori are cycle products, the
   hypercube is an iterated [K2] product) and as a graph family for
   protocol property tests.  Vertex [(a, b)] of a product of graphs
   with [n1] and [n2] vertices is labelled [(b - 1) * n1 + a]. *)

open Refnet_graph

let pair_label ~n1 a b = ((b - 1) * n1) + a

let unpair_label ~n1 v =
  let b = ((v - 1) / n1) + 1 in
  let a = ((v - 1) mod n1) + 1 in
  (a, b)

let build g h edge_rule =
  let n1 = Graph.order g and n2 = Graph.order h in
  let b = Graph.Builder.create (n1 * n2) in
  (* Enumerate unordered pairs of product vertices via the rule, which
     only consults component adjacency. *)
  for a1 = 1 to n1 do
    for b1 = 1 to n2 do
      for a2 = 1 to n1 do
        for b2 = 1 to n2 do
          let u = pair_label ~n1 a1 b1 and v = pair_label ~n1 a2 b2 in
          if u < v && edge_rule a1 b1 a2 b2 then Graph.Builder.add_edge b u v
        done
      done
    done
  done;
  Graph.Builder.build b

let cartesian g h =
  build g h (fun a1 b1 a2 b2 ->
      (a1 = a2 && Graph.has_edge h b1 b2) || (b1 = b2 && Graph.has_edge g a1 a2))

let tensor g h =
  build g h (fun a1 b1 a2 b2 -> Graph.has_edge g a1 a2 && Graph.has_edge h b1 b2)

let strong g h =
  build g h (fun a1 b1 a2 b2 ->
      (a1 = a2 && Graph.has_edge h b1 b2)
      || (b1 = b2 && Graph.has_edge g a1 a2)
      || (Graph.has_edge g a1 a2 && Graph.has_edge h b1 b2))

let power ~op g d =
  if d < 1 then invalid_arg "Product.power: need d >= 1";
  let rec go acc i = if i = d then acc else go (op acc g) (i + 1) in
  go g 1
