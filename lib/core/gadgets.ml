open Refnet_graph

let check g s t name =
  let n = Graph.order g in
  if s < 1 || s > n || t < 1 || t > n || s = t then
    invalid_arg ("Gadgets." ^ name ^ ": bad vertex pair")

let square g s t =
  check g s t "square";
  let n = Graph.order g in
  let extra =
    ((n + s, n + t) :: List.init n (fun i -> (i + 1, n + i + 1)))
  in
  Graph.add_edges (Graph.add_vertices g n) extra

let diameter g s t =
  check g s t "diameter";
  let n = Graph.order g in
  let extra =
    ((s, n + 1) :: (t, n + 2) :: List.init n (fun v -> (v + 1, n + 3)))
  in
  Graph.add_edges (Graph.add_vertices g 3) extra

let triangle g s t =
  check g s t "triangle";
  let n = Graph.order g in
  Graph.add_edges (Graph.add_vertices g 1) [ (s, n + 1); (t, n + 1) ]

let square_fictitious ~n ~s ~t j =
  if j <= n || j > 2 * n then invalid_arg "Gadgets.square_fictitious: not a fictitious vertex";
  if j = n + s then [ s; n + t ]
  else if j = n + t then [ t; n + s ]
  else [ j - n ]

let diameter_fictitious ~n ~s ~t j =
  if j = n + 1 then [ s ]
  else if j = n + 2 then [ t ]
  else if j = n + 3 then List.init n (fun i -> i + 1)
  else invalid_arg "Gadgets.diameter_fictitious: not a fictitious vertex"

let triangle_fictitious ~n ~s ~t j =
  if j = n + 1 then [ min s t; max s t ]
  else invalid_arg "Gadgets.triangle_fictitious: not a fictitious vertex"
