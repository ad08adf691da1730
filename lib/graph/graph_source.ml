type t = Materialized of Graph.t | Csr of Csr.t | Implicit of Implicit.t

let of_graph g = Materialized g
let of_csr c = Csr c
let of_implicit i = Implicit i

let backend = function
  | Materialized _ -> "materialized"
  | Csr _ -> "csr"
  | Implicit i -> Implicit.label i

let describe = function
  | Materialized g -> Printf.sprintf "materialized:%d" (Graph.order g)
  | Csr c -> Printf.sprintf "csr:%d" (Csr.order c)
  | Implicit i -> Implicit.describe i

let order = function
  | Materialized g -> Graph.order g
  | Csr c -> Csr.order c
  | Implicit i -> Implicit.order i

let size = function
  | Materialized g -> Graph.size g
  | Csr c -> Csr.size c
  | Implicit i -> Implicit.size i

let degree t v =
  match t with
  | Materialized g -> Graph.degree g v
  | Csr c -> Csr.degree c v
  | Implicit i -> Implicit.degree i v

let iter_neighbors t v f =
  match t with
  | Materialized g -> Graph.iter_neighbors g v f
  | Csr c -> Csr.iter_neighbors c v f
  | Implicit i -> Implicit.iter_neighbors i v f

let neighbors t v =
  match t with
  | Materialized g -> Graph.neighbors g v
  | Csr c -> Csr.neighbors c v
  | Implicit i -> Implicit.neighbors i v

let with_row t v f =
  match t with
  | Materialized g ->
    let row = Graph.neighbors_row g v in
    f v row 0 (Array.length row)
  | Csr c -> Csr.with_row c v f
  | Implicit i ->
    let row = Implicit.neighbors_array i v in
    f v row 0 (Array.length row)

let materialize = function
  | Materialized g -> g
  | Csr c -> Csr.to_graph c
  | Implicit i -> Implicit.materialize i

let parse ?graph spec =
  match spec with
  | "materialized" -> (
    match graph with
    | Some g -> Materialized g
    | None -> invalid_arg "Graph_source.parse: materialized source needs a graph")
  | "csr" -> (
    match graph with
    | Some g -> Csr (Csr.of_graph g)
    | None -> invalid_arg "Graph_source.parse: csr source needs a graph")
  | spec when String.length spec >= 9 && String.sub spec 0 9 = "implicit:" ->
    Implicit (Implicit.parse spec)
  | spec -> invalid_arg (Printf.sprintf "Graph_source.parse: unknown source %S" spec)
