(* Streaming-referee layer: arrival-order insensitivity for every
   shipped protocol, the feed API, View audits and guards, Message
   framing round-trips, and the Trace sinks. *)

open Refnet_graph

let shuffled_order rng n =
  let order = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

(* Feed the protocol's recorded messages in several random arrival
   orders and demand the finish output never moves off the id-order
   reference — the contract documented on {!Protocol.stream}. *)
let check_order_insensitive (type a) name (p : a Core.Protocol.t) (eq : a -> a -> bool) g =
  let n = Graph.order g in
  let msgs = Core.Simulator.local_phase p g in
  let reference = Core.Protocol.apply p ~n msgs in
  let rng = Random.State.make [| 0x07d3; Hashtbl.hash name |] in
  for _trial = 1 to 5 do
    let order = shuffled_order rng n in
    let feed = ref (Core.Protocol.start p.Core.Protocol.referee ~n) in
    Array.iter (fun id -> feed := Core.Protocol.feed !feed ~id msgs.(id - 1)) order;
    if not (eq (Core.Protocol.finish !feed) reference) then
      Alcotest.failf "%s: referee output depends on arrival order" name
  done

let graph_opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some g, Some h -> Graph.equal g h
  | _ -> false

let test_graphs seed =
  let rng = Random.State.make [| seed |] in
  [
    Generators.random_tree rng 17;
    Generators.cycle 9;
    Generators.grid 3 4;
    Generators.gnp rng 12 0.3;
  ]

let test_reconstruction_order_insensitive () =
  List.iter
    (fun g ->
      check_order_insensitive "forest-reconstruct" Core.Forest_protocol.reconstruct graph_opt_eq g;
      check_order_insensitive "degeneracy-k2"
        (Core.Degeneracy_protocol.reconstruct ~k:2 ())
        graph_opt_eq g;
      check_order_insensitive "generalized-k2"
        (Core.Generalized_degeneracy.reconstruct ~k:2 ())
        graph_opt_eq g;
      check_order_insensitive "bounded-degree-4"
        (Core.Bounded_degree.reconstruct ~max_degree:4)
        graph_opt_eq g;
      check_order_insensitive "full-information" Core.Bounded_degree.full_information Graph.equal g)
    (test_graphs 11)

let test_decision_order_insensitive () =
  List.iter
    (fun g ->
      check_order_insensitive "forest-recognize" Core.Forest_protocol.recognize ( = ) g;
      check_order_insensitive "sketch-connectivity" (Core.Sketch_connectivity.protocol ~seed:3 ()) ( = ) g;
      check_order_insensitive "degree-sequence" Core.Easy_protocols.degree_sequence ( = ) g;
      check_order_insensitive "edge-count" Core.Easy_protocols.edge_count ( = ) g;
      check_order_insensitive "has-edge" Core.Easy_protocols.has_edge ( = ) g;
      check_order_insensitive "max-degree" Core.Easy_protocols.max_degree ( = ) g;
      check_order_insensitive "min-degree" Core.Easy_protocols.min_degree ( = ) g;
      check_order_insensitive "is-regular" Core.Easy_protocols.is_regular ( = ) g;
      check_order_insensitive "isolated" Core.Easy_protocols.has_isolated_vertex ( = ) g;
      check_order_insensitive "universal" Core.Easy_protocols.has_universal_vertex ( = ) g;
      check_order_insensitive "all-even" Core.Easy_protocols.all_degrees_even ( = ) g;
      check_order_insensitive "sum-of-ids" Core.Easy_protocols.sum_of_ids_check ( = ) g)
    (test_graphs 23)

let test_reduction_order_insensitive () =
  (* The Δ-reductions use batch referees; the adapter slots messages by
     identifier, so arrival order must still be invisible. *)
  let g = Generators.path 6 in
  check_order_insensitive "delta-square"
    (Core.Reduction.square Core.Reduction.square_oracle)
    Graph.equal g;
  check_order_insensitive "square-oracle" Core.Reduction.square_oracle ( = ) g

let prop_async_arrival_matches_sync =
  QCheck2.Test.make ~name:"shuffled delivery agrees with in-order" ~count:40
    QCheck2.Gen.(pair (int_range 1 16) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.gnp rng n 0.35 in
      let sync, ts = Core.Simulator.run Core.Forest_protocol.recognize g in
      let async, ta =
        Core.Simulator.run ~delivery:(Core.Simulator.Shuffled rng) Core.Forest_protocol.recognize g
      in
      sync = async && ts.Core.Simulator.message_bits = ta.Core.Simulator.message_bits)

(* ------------------------------------------------------------------ *)
(* The feed API itself                                                  *)
(* ------------------------------------------------------------------ *)

let test_feed_equals_apply () =
  let g = Generators.grid 3 3 in
  let n = Graph.order g in
  let p = Core.Forest_protocol.recognize in
  let msgs = Core.Simulator.local_phase p g in
  let feed = ref (Core.Protocol.start p.Core.Protocol.referee ~n) in
  for i = 1 to n do
    feed := Core.Protocol.feed !feed ~id:i msgs.(i - 1)
  done;
  Alcotest.(check bool) "feed = apply" (Core.Protocol.apply p ~n msgs)
    (Core.Protocol.finish !feed)

(* Bytes allocated per [Protocol.feed] across a full n-message stream.
   The state is allocated once at [Protocol.start]; what must not grow
   with [n] is the per-absorb cost.  The window starts on an empty minor
   heap: a minor collection inside it would count the promotion of
   whatever the heap held before the window (once in 40 runs under
   load, n=4096 read 231 B/absorb instead of 7). *)
let bytes_per_absorb referee ~n msgs =
  let feed = ref (Core.Protocol.start referee ~n) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Array.iteri (fun i m -> feed := Core.Protocol.feed !feed ~id:(i + 1) m) msgs;
  let after = Gc.allocated_bytes () in
  ((after -. before) /. float_of_int n, Core.Protocol.finish !feed)

let test_absorb_allocation_constant () =
  let tree n = Generators.random_tree (Random.State.make [| 0xbeef; n |]) n in
  let forest n =
    let g = tree n in
    let p = Core.Forest_protocol.reconstruct in
    let bytes, out = bytes_per_absorb p.Core.Protocol.referee ~n (Core.Simulator.local_phase p g) in
    Alcotest.(check bool) "forest referee reconstructs" true
      (match out with Some h -> Graph.equal g h | None -> false);
    bytes
  in
  let coalition n =
    let p = Core.Connectivity_parts.decide in
    let inbox =
      Core.Coalition.collect p (Graph_source.of_graph (tree n))
        ~parts:(Core.Coalition.partition_by_ranges ~n ~parts:4)
    in
    let bytes, ok = bytes_per_absorb p.Core.Coalition.referee ~n inbox in
    Alcotest.(check bool) "coalition referee accepts a tree" true ok;
    bytes
  in
  List.iter
    (fun (name, per) ->
      ignore (per 512);
      let small = per 512 and big = per 4096 in
      if not (big /. small < 2.0 && big < 2048.0) then
        Alcotest.failf "%s: %.1f B/absorb at n=512 vs %.1f at n=4096 is not O(1)" name small big)
    [ ("forest-reconstruct", forest); ("coalition-connectivity", coalition) ]

let test_run_referee_guards_length () =
  Alcotest.check_raises "wrong message count"
    (Invalid_argument "Protocol.run_referee: wrong message count") (fun () ->
      ignore
        (Core.Protocol.run_referee Core.Forest_protocol.recognize.Core.Protocol.referee ~n:4
           (Array.make 3 Core.Message.empty)))

(* ------------------------------------------------------------------ *)
(* View: accessors, audit, guards                                       *)
(* ------------------------------------------------------------------ *)

let test_view_accessors_and_audit () =
  let v = Core.View.make ~n:10 ~id:4 ~neighbors:[ 2; 7; 9 ] in
  Alcotest.(check int) "id" 4 (Core.View.id v);
  Alcotest.(check int) "n" 10 (Core.View.n v);
  Alcotest.(check int) "deg" 3 (Core.View.deg v);
  Alcotest.(check (list int)) "neighbors" [ 2; 7; 9 ] (Core.View.neighbors v);
  Alcotest.(check int) "sum via fold" 18 (Core.View.fold_neighbors v 0 ( + ));
  let c = Core.View.audit v in
  Alcotest.(check int) "id reads" 1 c.Core.View.id_reads;
  Alcotest.(check int) "n reads" 1 c.Core.View.n_reads;
  Alcotest.(check int) "deg reads" 1 c.Core.View.deg_reads;
  Alcotest.(check int) "neighbor reads" 2 c.Core.View.neighbor_reads;
  Alcotest.(check int) "total queries" 5 (Core.View.queries v)

let test_view_guards () =
  Alcotest.check_raises "n < 1" (Invalid_argument "View.make: n must be positive") (fun () ->
      ignore (Core.View.make ~n:0 ~id:1 ~neighbors:[]));
  Alcotest.check_raises "id out of range" (Invalid_argument "View.make: id out of range")
    (fun () -> ignore (Core.View.make ~n:5 ~id:6 ~neighbors:[]))

let test_view_purity_under_audit () =
  (* The tally is invisible to the local function: re-evaluating on a
     fresh view with the same contents gives the same message. *)
  let p = Core.Degeneracy_protocol.reconstruct ~k:2 () in
  let mk () = p.Core.Protocol.local (Core.View.make ~n:9 ~id:5 ~neighbors:[ 1; 8 ]) in
  Alcotest.(check bool) "bit-identical" true (Core.Message.equal (mk ()) (mk ()))

(* ------------------------------------------------------------------ *)
(* Message framing round-trips                                          *)
(* ------------------------------------------------------------------ *)

let gen_message =
  (* Arbitrary bit strings, with empty messages well represented. *)
  QCheck2.Gen.(
    bind (int_range 0 40) (fun len ->
        map
          (fun bits ->
            let v = Refnet_bits.Bitvec.create len in
            List.iteri (fun i b -> if b then Refnet_bits.Bitvec.set v i) bits;
            v)
          (list_size (return len) bool)))

let prop_framed_roundtrip =
  QCheck2.Test.make ~name:"write_framed/read_framed round-trips" ~count:200 gen_message
    (fun m ->
      let w = Refnet_bits.Bit_writer.create () in
      Core.Message.write_framed w m;
      let r = Refnet_bits.Bit_reader.of_bitvec (Refnet_bits.Bit_writer.contents w) in
      Core.Message.equal m (Core.Message.read_framed r))

let prop_bundle_roundtrip =
  QCheck2.Test.make ~name:"bundle/unbundle round-trips (incl. empty parts)" ~count:200
    QCheck2.Gen.(list_size (int_range 0 6) gen_message)
    (fun parts ->
      let bundled = Core.Message.bundle parts in
      let back = Core.Message.unbundle ~count:(List.length parts) bundled in
      List.length back = List.length parts
      && List.for_all2 Core.Message.equal parts back)

let prop_concat_is_sequential_read =
  QCheck2.Test.make ~name:"concat of framed parts decodes sequentially" ~count:100
    QCheck2.Gen.(pair gen_message gen_message)
    (fun (a, b) ->
      let frame m =
        let w = Refnet_bits.Bit_writer.create () in
        Core.Message.write_framed w m;
        Core.Message.of_writer w
      in
      let joined = Core.Message.concat [ frame a; frame b ] in
      let r = Core.Message.reader joined in
      let a' = Core.Message.read_framed r in
      let b' = Core.Message.read_framed r in
      Core.Message.equal a a' && Core.Message.equal b b')

(* ------------------------------------------------------------------ *)
(* Trace sinks                                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_event_stream () =
  let g = Generators.cycle 7 in
  let sink, events = Core.Trace.memory () in
  let _, t = Core.Simulator.run ~trace:sink Core.Forest_protocol.recognize g in
  let evs = events () in
  let count p = List.length (List.filter p evs) in
  Alcotest.(check int) "one span begin" 1
    (count (function Core.Trace.Span_begin _ -> true | _ -> false));
  Alcotest.(check int) "one span end" 1
    (count (function Core.Trace.Span_end _ -> true | _ -> false));
  Alcotest.(check int) "n local events" 7
    (count (function Core.Trace.Node_local _ -> true | _ -> false));
  Alcotest.(check int) "n absorb events" 7
    (count (function Core.Trace.Referee_absorb _ -> true | _ -> false));
  (match List.filter (function Core.Trace.Referee_done _ -> true | _ -> false) evs with
  | [ Core.Trace.Referee_done { n; max_bits; total_bits; _ } ] ->
    Alcotest.(check int) "done.n" 7 n;
    Alcotest.(check int) "done.max" t.Core.Simulator.max_bits max_bits;
    Alcotest.(check int) "done.total" t.Core.Simulator.total_bits total_bits
  | _ -> Alcotest.fail "expected exactly one Referee_done");
  (* Per-node trace data matches the transcript. *)
  let traced_total =
    List.fold_left
      (fun acc ev -> match ev with Core.Trace.Node_local { bits; _ } -> acc + bits | _ -> acc)
      0 evs
  in
  Alcotest.(check int) "bits add up" t.Core.Simulator.total_bits traced_total;
  (* Every node queried its view through the audited accessors. *)
  List.iter
    (fun ev ->
      match ev with
      | Core.Trace.Node_local { queries; _ } ->
        Alcotest.(check bool) "view was queried" true
          (queries.Core.View.id_reads + queries.Core.View.n_reads + queries.Core.View.deg_reads
           + queries.Core.View.neighbor_reads
          > 0)
      | _ -> ())
    evs

let test_trace_async_absorbs_every_id_once () =
  let g = Generators.grid 3 3 in
  let sink, events = Core.Trace.memory () in
  let _ =
    Core.Simulator.run
      ~delivery:(Core.Simulator.Shuffled (Random.State.make [| 42 |]))
      ~trace:sink Core.Forest_protocol.recognize g
  in
  let ids =
    List.filter_map
      (function Core.Trace.Referee_absorb { id; _ } -> Some id | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "each id exactly once" (List.init 9 (fun i -> i + 1))
    (List.sort compare ids)

let test_trace_untraced_is_silent () =
  Alcotest.(check bool) "null is null" true (Core.Trace.is_null Core.Trace.null);
  (* Emission on the null sink is a no-op (and must not raise). *)
  Core.Trace.emit Core.Trace.null (Core.Trace.Span_begin { label = "x"; n = 1 })

let test_trace_json_escaping () =
  let s =
    Core.Trace.json_of_event (Core.Trace.Span_begin { label = "quo\"te\\back"; n = 3 })
  in
  Alcotest.(check string) "escaped"
    "{\"event\":\"span_begin\",\"label\":\"quo\\\"te\\\\back\",\"n\":3}" s

let test_trace_balanced_spans () =
  (* Every traced entry point must emit properly nested, label-matched
     Span_begin/Span_end pairs — including the fault-injection paths. *)
  let g = Generators.gnp (Random.State.make [| 77 |]) 12 0.3 in
  let faults = Core.Faults.of_list [ (1, Core.Faults.Crash); (2, Core.Faults.Duplicate) ] in
  let check name run =
    let sink, events = Core.Trace.memory () in
    run sink;
    let evs = events () in
    Alcotest.(check bool) (name ^ ": spans balance") true (Core.Trace.balanced_spans evs);
    Alcotest.(check bool) (name ^ ": spans present") true
      (List.exists (function Core.Trace.Span_begin _ -> true | _ -> false) evs)
  in
  check "run" (fun trace -> ignore (Core.Simulator.run ~trace Core.Forest_protocol.recognize g));
  check "run faulty" (fun trace ->
      ignore
        (Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) ~trace
           Core.Forest_protocol.hardened g));
  check "run shuffled" (fun trace ->
      ignore
        (Core.Simulator.run
           ~delivery:(Core.Simulator.Shuffled (Random.State.make [| 7 |]))
           ~trace Core.Forest_protocol.recognize g));
  check "coalition run" (fun trace ->
      ignore
        (Core.Coalition.run ~trace Core.Connectivity_parts.decide g
           ~parts:(Core.Coalition.partition_by_ranges ~n:12 ~parts:3)));
  check "coalition run faulty" (fun trace ->
      ignore
        (Core.Coalition.run ~delivery:(Core.Simulator.Faulty faults) ~trace
           Core.Connectivity_parts.hardened g
           ~parts:(Core.Coalition.partition_by_ranges ~n:12 ~parts:3)));
  (* The checker itself rejects mismatched and dangling spans. *)
  let b l = Core.Trace.Span_begin { label = l; n = 1 }
  and e l = Core.Trace.Span_end { label = l; n = 1 } in
  Alcotest.(check bool) "nested ok" true
    (Core.Trace.balanced_spans [ b "a"; b "b"; e "b"; e "a" ]);
  Alcotest.(check bool) "label mismatch" false (Core.Trace.balanced_spans [ b "a"; e "b" ]);
  Alcotest.(check bool) "dangling begin" false (Core.Trace.balanced_spans [ b "a" ]);
  Alcotest.(check bool) "stray end" false (Core.Trace.balanced_spans [ e "a" ]);
  Alcotest.(check bool) "crossed pairs" false
    (Core.Trace.balanced_spans [ b "a"; b "b"; e "a"; e "b" ])

let test_trace_jsonl_lines () =
  let path = Filename.temp_file "refnet_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Core.Trace.jsonl oc in
      let g = Generators.cycle 5 in
      let _ = Core.Simulator.run ~trace:sink Core.Forest_protocol.recognize g in
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      (* span begin + 5 local + 5 absorb + done + span end *)
      Alcotest.(check int) "line count" 13 (List.length lines);
      List.iter
        (fun line ->
          Alcotest.(check bool) "looks like a JSON object" true
            (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}'))
        lines)

(* ------------------------------------------------------------------ *)
(* Delivery matrix: every engine through the one uplink core           *)
(* ------------------------------------------------------------------ *)

(* One engine run: the delivery schedule, chunk and pool width vary;
   output and transcript must not. *)
type 'a engine =
  ?chunk:int ->
  delivery:Core.Simulator.delivery ->
  domains:int ->
  trace:Core.Trace.sink ->
  unit ->
  'a

let check_delivery_matrix (type a) name (run : a engine) =
  let reference = run ~delivery:Core.Simulator.In_order ~domains:1 ~trace:Core.Trace.null () in
  let cases =
    [
      ("in order", None, fun () -> Core.Simulator.In_order);
      ("in order chunk 1", Some 1, fun () -> Core.Simulator.In_order);
      ("in order chunk 5", Some 5, fun () -> Core.Simulator.In_order);
      ("faulty empty", None, fun () -> Core.Simulator.Faulty Core.Faults.empty);
      ("shuffled", None, fun () -> Core.Simulator.Shuffled (Random.State.make [| 0x5eed; 3 |]));
    ]
  in
  let events delivery domains =
    let sink, drain = Core.Trace.memory () in
    ignore (run ~delivery ~domains ~trace:sink ());
    drain ()
  in
  List.iter
    (fun domains ->
      List.iter
        (fun (label, chunk, delivery) ->
          let got = run ?chunk ~delivery:(delivery ()) ~domains ~trace:Core.Trace.null () in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s, width %d: output and transcript" name label domains)
            true (got = reference))
        cases;
      Alcotest.(check bool)
        (Printf.sprintf "%s, width %d: empty plan, same events" name domains)
        true
        (events Core.Simulator.In_order domains
        = events (Core.Simulator.Faulty Core.Faults.empty) domains))
    [ 1; 4 ]

let test_delivery_matrix () =
  let g = Generators.random_tree (Random.State.make [| 41 |]) 23 in
  let src = Graph_source.of_graph g in
  let parts = Core.Coalition.partition_by_ranges ~n:(Graph.order g) ~parts:3 in
  check_delivery_matrix "simulator forest" (fun ?chunk ~delivery ~domains ~trace () ->
      Core.Simulator.run_source ?chunk ~delivery ~domains ~trace Core.Forest_protocol.recognize
        src);
  (* Coalitions pool their views: no chunk, no pool width to vary. *)
  check_delivery_matrix "coalition connectivity" (fun ?chunk:_ ~delivery ~domains:_ ~trace () ->
      Core.Coalition.run_source ~delivery ~trace Core.Connectivity_parts.decide src ~parts);
  check_delivery_matrix "bcc one-round forest" (fun ?chunk ~delivery ~domains ~trace () ->
      Core.Bcc.run_source ?chunk ~delivery ~domains ~trace
        (Core.Bcc.of_one_round Core.Forest_protocol.recognize)
        src);
  check_delivery_matrix "bcc connectivity" (fun ?chunk ~delivery ~domains ~trace () ->
      Core.Bcc.run_source ?chunk ~delivery ~domains ~trace
        (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:2 ())
        src)

let test_chunk_rejected () =
  let src = Graph_source.of_graph (Generators.cycle 8) in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
      let has_chunk =
        let k = String.length "chunk" in
        let rec go i = i + k <= String.length msg && (String.sub msg i k = "chunk" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "%s: %S names the field" name msg) true has_chunk
  in
  List.iter
    (fun chunk ->
      rejects (Printf.sprintf "simulator chunk %d" chunk) (fun () ->
          ignore (Core.Simulator.run_source ~chunk Core.Forest_protocol.recognize src));
      rejects (Printf.sprintf "bcc chunk %d" chunk) (fun () ->
          ignore
            (Core.Bcc.run_source ~chunk
               (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:2 ())
               src)))
    [ 0; -1 ]

let () =
  Alcotest.run "streaming"
    [
      ( "arrival order",
        [
          Alcotest.test_case "reconstruction referees" `Quick test_reconstruction_order_insensitive;
          Alcotest.test_case "decision referees" `Quick test_decision_order_insensitive;
          Alcotest.test_case "reduction referees" `Quick test_reduction_order_insensitive;
        ] );
      ( "feed API",
        [
          Alcotest.test_case "feed equals apply" `Quick test_feed_equals_apply;
          Alcotest.test_case "length guard" `Quick test_run_referee_guards_length;
          Alcotest.test_case "O(1) allocation per absorb" `Quick test_absorb_allocation_constant;
        ] );
      ( "view",
        [
          Alcotest.test_case "accessors and audit" `Quick test_view_accessors_and_audit;
          Alcotest.test_case "guards" `Quick test_view_guards;
          Alcotest.test_case "purity under audit" `Quick test_view_purity_under_audit;
        ] );
      ( "trace",
        [
          Alcotest.test_case "event stream" `Quick test_trace_event_stream;
          Alcotest.test_case "async absorbs each id once" `Quick
            test_trace_async_absorbs_every_id_once;
          Alcotest.test_case "null sink" `Quick test_trace_untraced_is_silent;
          Alcotest.test_case "json escaping" `Quick test_trace_json_escaping;
          Alcotest.test_case "balanced spans on every entry point" `Quick
            test_trace_balanced_spans;
          Alcotest.test_case "jsonl lines" `Quick test_trace_jsonl_lines;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "matrix" `Quick test_delivery_matrix;
          Alcotest.test_case "chunk below 1 rejected" `Quick test_chunk_rejected;
        ] );
      ( "framing",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_framed_roundtrip;
            prop_bundle_roundtrip;
            prop_concat_is_sequential_read;
            prop_async_arrival_matches_sync;
          ] );
    ]
