open Refnet_bits

let degree_message ~n ~deg =
  let w = Bit_writer.create () in
  Codes.write_fixed w ~width:(Bounds.id_bits n) deg;
  Message.of_writer w

let degree_local v = degree_message ~n:(View.n v) ~deg:(View.deg v)

let read_degree ~n msg = Codes.read_fixed (Message.reader msg) ~width:(Bounds.id_bits n)

(* Degree-fold protocols: every referee below is a commutative fold over
   the degree multiset — O(1) words of state, one decode per absorb, no
   message array ever materialized. *)
let on_degrees name ~init ~step ~out : 'a Protocol.t =
  {
    name;
    local = degree_local;
    referee =
      Protocol.streaming
        ~init:(fun ~n:_ -> init)
        ~absorb:(fun ~n acc ~id:_ msg -> step ~n acc (read_degree ~n msg))
        ~finish:(fun ~n:_ acc -> out acc);
    budget = None;
  }

let degree_sequence : int list Protocol.t =
  on_degrees "degree-sequence" ~init:[]
    ~step:(fun ~n:_ ds d -> d :: ds)
    ~out:(List.sort (fun a b -> Stdlib.compare b a))

let edge_count =
  on_degrees "edge-count" ~init:0 ~step:(fun ~n:_ m d -> m + d) ~out:(fun m -> m / 2)

let has_edge =
  on_degrees "has-edge" ~init:false ~step:(fun ~n:_ a d -> a || d > 0) ~out:Fun.id

let max_degree = on_degrees "max-degree" ~init:0 ~step:(fun ~n:_ a d -> max a d) ~out:Fun.id

let min_degree =
  on_degrees "min-degree" ~init:None
    ~step:(fun ~n:_ a d -> match a with None -> Some d | Some m -> Some (min m d))
    ~out:(Option.value ~default:0)

let is_regular =
  on_degrees "is-regular" ~init:None
    ~step:(fun ~n:_ a d ->
      match a with None -> Some (d, true) | Some (d0, eq) -> Some (d0, eq && d = d0))
    ~out:(function None -> true | Some (_, eq) -> eq)

let has_isolated_vertex =
  on_degrees "has-isolated" ~init:false ~step:(fun ~n:_ a d -> a || d = 0) ~out:Fun.id

let has_universal_vertex : bool Protocol.t =
  on_degrees "has-universal" ~init:false ~step:(fun ~n a d -> a || d = n - 1) ~out:Fun.id

let all_degrees_even =
  on_degrees "all-degrees-even" ~init:true ~step:(fun ~n:_ a d -> a && d land 1 = 0) ~out:Fun.id

let sum_of_ids_check : bool Protocol.t =
  {
    name = "handshake-fingerprint";
    local =
      (fun v ->
        let n = View.n v in
        let w = Bit_writer.create () in
        Codes.write_fixed w ~width:(Bounds.id_bits n) (View.deg v);
        Codes.write_fixed w ~width:(2 * Bounds.id_bits n) (View.fold_neighbors v 0 ( + ));
        Message.of_writer w);
    referee =
      (* Each edge {u,v} contributes u + v to the total of neighbour-ID
         sums, and also u + v to sum over nodes of deg * id when viewed
         from the other side; the two running totals must agree. *)
      Protocol.streaming
        ~init:(fun ~n:_ -> (0, 0))
        ~absorb:(fun ~n (total_sums, weighted_degrees) ~id msg ->
          let w = Bounds.id_bits n in
          let r = Message.reader msg in
          let deg = Codes.read_fixed r ~width:w in
          let s = Codes.read_fixed r ~width:(2 * w) in
          (total_sums + s, weighted_degrees + (deg * id)))
        ~finish:(fun ~n:_ (total_sums, weighted_degrees) -> total_sums = weighted_degrees);
    budget = None;
  }
