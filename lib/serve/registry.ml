open Core
module Graph = Refnet_graph.Graph
module Gio = Refnet_graph.Gio

type entry =
  | Entry : {
      protocol : 'a Core.Verdict.t Core.Protocol.t;
      render : 'a -> string;
    }
      -> entry

(* graph6 beyond this order would overflow the 64 KiB wire string field;
   fall back to a fingerprint summary that still pins the graph down for
   equality checks with overwhelming probability. *)
let graph6_render_max = 512

let render_graph g =
  let n = Graph.order g in
  if n <= graph6_render_max then "graph:" ^ Gio.to_graph6 g
  else begin
    let h = ref (Refnet_bits.Fnv.string (string_of_int n)) in
    Graph.iter_edges g (fun u v -> h := Refnet_bits.Fnv.fold_int (Refnet_bits.Fnv.fold_int !h u) v);
    Printf.sprintf "graph-summary:n=%d;m=%d;fnv=%08x" n (Graph.size g) !h
  end

let render_graph_opt = function
  | Some g -> render_graph g
  | None -> "rejected"

let render_bool b = if b then "connected" else "disconnected"

(* A deliberately tiny protocol for load generation: each node sends its
   sealed degree; the referee sums them.  Exercises the whole serve
   path — seals, hardening, verdicts — at O(log n) bits per message. *)
let count_protocol : (int * int) Verdict.t Protocol.t =
  Protocol.sealed ~name:"serve-count+hardened"
    ~local:(fun v ->
      let w = Refnet_bits.Bit_writer.create () in
      Refnet_bits.Codes.write_fixed w
        ~width:(Refnet_bits.Codes.id_width (View.n v))
        (View.deg v);
      Message.of_writer w)
    ~init:(fun ~n:_ -> (0, 0))
    ~absorb:(fun ~n (nodes, degsum) ~id:_ r ->
      let d =
        Refnet_bits.Codes.read_fixed r ~width:(Refnet_bits.Codes.id_width n)
      in
      (nodes + 1, degsum + d))
    (* A faulted channel degrades to the partial census with the fault
       report attached — the census over absorbed nodes is sound, and
       the report says exactly how partial it is. *)
    ~finish:(fun ~n:_ report ~trusted:_ acc ->
      if Verdict.channel_clean report then Verdict.Decided acc
      else Verdict.Degraded (acc, report))

let render_count (nodes, degsum) =
  Printf.sprintf "nodes=%d;degsum=%d" nodes degsum

let specs =
  [ "count"; "forest"; "degeneracy:<k>"; "bounded:<d>"; "sketch:<seed>" ]

(* Session-size caps.  The bound is whichever bites first: referee state
   (degeneracy holds an n^2-bit incidence structure), message size, or
   just sanity for a single one-round session. *)
let cap_count = 10_000_000
let cap_forest = 1_000_000
let cap_degeneracy = 4_096
let cap_bounded = 100_000
let cap_sketch = 65_536

let split_spec spec =
  match String.index_opt spec ':' with
  | None -> (spec, None)
  | Some i ->
      ( String.sub spec 0 i,
        Some (String.sub spec (i + 1) (String.length spec - i - 1)) )

let arg_int name = function
  | None -> Error (Printf.sprintf "%s needs an integer argument" name)
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | Some _ -> Error (Printf.sprintf "%s argument must be >= 1" name)
      | None -> Error (Printf.sprintf "%s argument %S is not an integer" name s))

let resolve spec =
  match split_spec spec with
  | "count", None ->
      Ok
        ( cap_count,
          Entry { protocol = count_protocol; render = render_count } )
  | "forest", None ->
      Ok
        ( cap_forest,
          Entry
            { protocol = Forest_protocol.hardened; render = render_graph_opt }
        )
  | "degeneracy", arg -> (
      match arg_int "degeneracy" arg with
      | Error _ as e -> e
      | Ok k ->
          Ok
            ( cap_degeneracy,
              Entry
                {
                  protocol = Degeneracy_protocol.hardened ~k ();
                  render = render_graph_opt;
                } ))
  | "bounded", arg -> (
      match arg_int "bounded" arg with
      | Error _ as e -> e
      | Ok d ->
          Ok
            ( cap_bounded,
              Entry
                {
                  protocol = Bounded_degree.hardened ~max_degree:d;
                  render = render_graph_opt;
                } ))
  | "sketch", arg -> (
      match arg_int "sketch" arg with
      | Error _ as e -> e
      | Ok seed ->
          Ok
            ( cap_sketch,
              Entry
                {
                  protocol = Sketch_connectivity.hardened ~seed ();
                  render = render_bool;
                } ))
  | stem, _ ->
      Error
        (Printf.sprintf "unknown protocol %S (expected one of: %s)" stem
           (String.concat ", " specs))

let max_n spec =
  match resolve spec with Ok (cap, _) -> Some cap | Error _ -> None

let lookup ~spec ~n =
  match resolve spec with
  | Error _ as e -> e
  | Ok (cap, entry) ->
      if n < 1 then Error "session size n must be >= 1"
      else if n > cap then
        Error (Printf.sprintf "n=%d exceeds the %s cap of %d" n spec cap)
      else Ok entry
