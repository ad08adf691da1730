(* The broadcast congested clique engine: adaptive two-round
   reconstruction (ported from the retired Multi_round module, same
   outputs), deterministic O(1)-round connectivity against oracles up to
   n = 10^5, budget enforcement, cross-backend/chunk/width transcript
   equality, fault degradation, and the per-round budget audit. *)

open Refnet_bits
open Refnet_graph

let graph_opt =
  Alcotest.option (Alcotest.testable (fun fmt g -> Graph.pp fmt g) Graph.equal)

let bool_opt = Alcotest.(option bool)

(* ---------- degree bound (round-1 inference) ---------- *)

let test_degree_bound_values () =
  (* Star K_{1,5}: degrees 5,1,1,1,1,1 -> only 2 vertices of degree >= 1,
     so bound = 1 (matches degeneracy). *)
  Alcotest.(check int) "star" 1 (Core.Bcc.Adaptive_degeneracy.degree_bound [| 5; 1; 1; 1; 1; 1 |]);
  (* K4: degrees all 3 -> 4 vertices of degree >= 3 -> bound 3. *)
  Alcotest.(check int) "K4" 3 (Core.Bcc.Adaptive_degeneracy.degree_bound [| 3; 3; 3; 3 |]);
  Alcotest.(check int) "edgeless" 0 (Core.Bcc.Adaptive_degeneracy.degree_bound [| 0; 0 |]);
  Alcotest.(check int) "empty" 0 (Core.Bcc.Adaptive_degeneracy.degree_bound [||])

let test_degree_bound_dominates_degeneracy () =
  List.iter
    (fun g ->
      let degrees = Array.of_list (List.map (Graph.degree g) (Graph.vertices g)) in
      Alcotest.(check bool) "bound >= degeneracy" true
        (Core.Bcc.Adaptive_degeneracy.degree_bound degrees >= Degeneracy.degeneracy g))
    [
      Generators.petersen ();
      Generators.grid 4 4;
      Generators.complete 6;
      Generators.random_apollonian (Random.State.make [| 5 |]) 20;
    ]

(* ---------- adaptive two-round reconstruction ---------- *)

let run_adaptive g = Core.Bcc.run (Core.Bcc.Adaptive_degeneracy.protocol ()) g

let test_adaptive_reconstructs_without_k () =
  (* The paper's protocol needs k known a priori; two rounds discover it. *)
  List.iter
    (fun (name, g) ->
      let out, _ = run_adaptive g in
      Alcotest.check graph_opt name (Some g) out)
    [
      ("tree", Generators.random_tree (Random.State.make [| 1 |]) 25);
      ("grid", Generators.grid 4 4);
      ("K6 (dense!)", Generators.complete 6);
      ("petersen", Generators.petersen ());
      ("empty", Graph.empty 5);
    ]

let test_adaptive_transcript_shape () =
  let g = Generators.grid 4 4 in
  let _, t = run_adaptive g in
  Alcotest.(check int) "two rounds" 2 t.Core.Bcc.rounds;
  (* Round 1 is one degree (log n bits); round 2 is the Algorithm 3
     message at the inferred k-hat. *)
  Alcotest.(check int) "round 1 is a degree" (Core.Bounds.id_bits 16)
    t.Core.Bcc.per_round_max_bits.(0);
  Alcotest.(check bool) "round 2 carries power sums" true
    (t.Core.Bcc.per_round_max_bits.(1) > t.Core.Bcc.per_round_max_bits.(0));
  Alcotest.(check int) "one broadcast" 1 (Array.length t.Core.Bcc.broadcast_bits);
  Alcotest.(check bool) "broadcast carries k-hat" true (t.Core.Bcc.broadcast_bits.(0) > 0);
  Alcotest.(check int) "unbounded budget" max_int t.Core.Bcc.bits_limit;
  Alcotest.(check int) "total sums the rounds"
    (t.Core.Bcc.per_round_total_bits.(0) + t.Core.Bcc.per_round_total_bits.(1))
    t.Core.Bcc.total_bits

let test_adaptive_bits_track_sparseness () =
  (* A path and a clique of the same order: the adaptive protocol spends
     far fewer round-2 bits on the path. *)
  let _, tp = run_adaptive (Generators.path 12) in
  let _, tc = run_adaptive (Generators.complete 12) in
  Alcotest.(check bool) "path cheaper than clique" true
    (tp.Core.Bcc.max_bits < tc.Core.Bcc.max_bits)

let test_of_one_round_embedding () =
  let lifted = Core.Bcc.of_one_round Core.Forest_protocol.reconstruct in
  let g = Generators.random_tree (Random.State.make [| 2 |]) 15 in
  let out, t = Core.Bcc.run lifted g in
  Alcotest.check graph_opt "same output" (Some g) out;
  Alcotest.(check int) "single round" 1 t.Core.Bcc.rounds;
  Alcotest.(check int) "no broadcast" 0 (Array.length t.Core.Bcc.broadcast_bits);
  Alcotest.(check int) "same message size" (Core.Forest_protocol.message_bits 15)
    t.Core.Bcc.max_bits

(* ---------- deterministic connectivity ---------- *)

let max_degree_of g =
  List.fold_left (fun acc v -> max acc (Graph.degree g v)) 0 (Graph.vertices g)

let decide_conn ?(bandwidth = 2) g =
  let rounds = Core.Bcc_connectivity.rounds_for ~bandwidth ~max_degree:(max_degree_of g) in
  Core.Bcc.run (Core.Bcc_connectivity.protocol ~rounds ~bandwidth ()) g

let two_triangles = Graph.of_edges 6 [ (1, 2); (2, 3); (1, 3); (4, 5); (5, 6); (4, 6) ]

let test_connectivity_vs_oracle () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun bandwidth ->
          let out, t = decide_conn ~bandwidth g in
          Alcotest.check bool_opt
            (Printf.sprintf "%s @ bandwidth %d" name bandwidth)
            (Some (Connectivity.is_connected g))
            out;
          (* The enforced cap is the advertised O(log n) budget. *)
          Alcotest.(check int) "budget is c * id_bits"
            (bandwidth * Core.Bounds.id_bits (Graph.order g))
            t.Core.Bcc.bits_limit;
          Alcotest.(check bool) "within budget" true (t.Core.Bcc.max_bits <= t.Core.Bcc.bits_limit))
        [ 1; 3 ])
    [
      ("path", Generators.path 12);
      ("cycle", Generators.cycle 9);
      ("K8", Generators.complete 8);
      ("petersen", Generators.petersen ());
      ("grid", Generators.grid 4 4);
      ("singleton", Graph.empty 1);
      ("edgeless", Graph.empty 5);
      ("two triangles", two_triangles);
      ("gnp", Generators.gnp (Random.State.make [| 3 |]) 24 0.12);
    ]

let test_connectivity_insufficient_rounds () =
  (* Two triangles, one id per round: after round 2 each node has
     announced one of its two neighbours — no spanning knowledge, no
     one-component certificate -> undetermined, never a wrong answer. *)
  let out, _ = Core.Bcc.run (Core.Bcc_connectivity.protocol ~rounds:2 ~bandwidth:1 ()) two_triangles in
  Alcotest.check bool_opt "undetermined" None out;
  (* One more batch closes the adjacency lists: exact "disconnected". *)
  let out, _ = Core.Bcc.run (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:1 ()) two_triangles in
  Alcotest.check bool_opt "decided" (Some false) out

let test_connectivity_early_stop () =
  (* A connected family resolves at round 2 (smallest-first batches span
     every implicit family); the round-3 uplink then costs nothing. *)
  let out, t =
    Core.Bcc.run (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:1 ()) (Generators.cycle 32)
  in
  Alcotest.check bool_opt "connected" (Some true) out;
  Alcotest.(check bool) "round 2 pays" true (t.Core.Bcc.per_round_total_bits.(1) > 0);
  Alcotest.(check int) "round 3 is free" 0 t.Core.Bcc.per_round_total_bits.(2);
  Alcotest.(check int) "resolved flag is one bit" 1 t.Core.Bcc.broadcast_bits.(1)

let seven_families n =
  [ "path"; "cycle"; "star"; "grid"; "hypercube"; "regular:4:7"; "degenerate:3:5" ]
  |> List.map (fun spec -> Implicit.parse_family spec n)

let source_max_degree src =
  let n = Graph_source.order src in
  let m = ref 0 in
  for v = 1 to n do
    m := max !m (Graph_source.degree src v)
  done;
  !m

let decide_source ?(bandwidth = 2) ?rounds src =
  let rounds =
    match rounds with
    | Some r -> r
    | None -> Core.Bcc_connectivity.rounds_for ~bandwidth ~max_degree:(source_max_degree src)
  in
  fst (Core.Bcc.run_source (Core.Bcc_connectivity.protocol ~rounds ~bandwidth ()) src)

let test_connectivity_implicit_families_oracle () =
  (* Materializable sizes: every family against the BFS oracle. *)
  List.iter
    (fun fam ->
      let src = Graph_source.of_implicit fam in
      let expected = Connectivity.is_connected (Implicit.materialize fam) in
      Alcotest.check bool_opt (Implicit.label fam) (Some expected) (decide_source src))
    (seven_families 600)

let test_connectivity_large_implicit () =
  (* n = 10^5: beyond materialization, against closed-form truths.  The
     connected families resolve at round 2 — O(1) rounds at O(log n)
     bits — independent of n. *)
  List.iter
    (fun (spec, n) ->
      let src = Graph_source.parse (Printf.sprintf "implicit:%s" spec) in
      Alcotest.check bool_opt spec (Some true) (decide_source ~bandwidth:1 ~rounds:2 src);
      ignore n)
    [
      ("path:100000", 100000);
      ("cycle:100000", 100000);
      ("star:100000", 100000);
      ("grid:250x400", 100000);
      ("hypercube:16", 65536);
    ];
  (* Hashed circulant: the protocol must agree with the gcd oracle. *)
  let fam = Implicit.parse "regular:100000:4:7" in
  let src = Graph_source.of_implicit fam in
  let offsets = List.map (fun nb -> nb - 1) (Implicit.neighbors fam 1) in
  let expected = Core.Bcc_connectivity.circulant_connected ~n:100000 offsets in
  Alcotest.check bool_opt "regular:100000:4:7" (Some expected) (decide_source ~bandwidth:2 src);
  (* Planted degeneracy: no closed form — two bandwidths must agree, and
     the round budget guarantees a decision either way. *)
  let src = Graph_source.parse "implicit:degenerate:100000:3:5" in
  let a = decide_source ~bandwidth:4 src in
  let b = decide_source ~bandwidth:8 src in
  Alcotest.(check bool) "degenerate decided" true (a <> None);
  Alcotest.check bool_opt "bandwidths agree" a b

let test_circulant_oracle () =
  Alcotest.(check bool) "gcd 1" true (Core.Bcc_connectivity.circulant_connected ~n:10 [ 3 ]);
  Alcotest.(check bool) "gcd 2" false (Core.Bcc_connectivity.circulant_connected ~n:10 [ 2; 4 ]);
  Alcotest.(check bool) "no offsets" false (Core.Bcc_connectivity.circulant_connected ~n:5 []);
  Alcotest.(check bool) "trivial" true (Core.Bcc_connectivity.circulant_connected ~n:1 []);
  (* CI runs [refnet bcc] on this million-node family under a 640 MB
     cap and needs exit 0 ("connected"); the oracle agrees. *)
  let src = Graph_source.parse "implicit:regular:1000000:4:1" in
  let offsets = List.map (fun nb -> nb - 1) (Graph_source.neighbors src 1) in
  Alcotest.(check bool) "regular:1000000:4:1" true
    (Core.Bcc_connectivity.circulant_connected ~n:1_000_000 offsets)

(* ---------- budget enforcement ---------- *)

(* A protocol that lies about its budget: claims one id per round but
   ships two.  The engine must refuse at send time, deterministically on
   the smallest id. *)
let chatty () : unit Core.Bcc.t =
  {
    Core.Bcc.name = "bcc-test-chatty";
    budget = { Core.Bcc.rounds = 1; bits_per_round = Core.Bcc.log_budget ~c:1 };
    init = Core.Bcc.make_state;
    send =
      (fun ~round:_ s ->
        let v = Core.Bcc.state_view s in
        let w = Bit_writer.create () in
        Codes.write_fixed w ~width:(2 * Core.Bounds.id_bits (Core.View.n v)) 0;
        (Core.Message.of_writer w, s));
    receive = (fun ~round:_ ~broadcast:_ s -> s);
    referee =
      Core.Bcc.Referee
        {
          r_init = (fun ~n:_ -> ());
          r_absorb = (fun ~n:_ ~round:_ () ~id:_ _ -> ());
          r_broadcast = (fun ~n:_ ~round:_ () -> ((), Core.Message.empty));
          r_finish = (fun ~n:_ () -> ());
        };
    audit = None;
  }

(* A referee that breaks the cap with its own broadcast (id 0). *)
let shouty () : unit Core.Bcc.t =
  {
    Core.Bcc.name = "bcc-test-shouty";
    budget = { Core.Bcc.rounds = 2; bits_per_round = Core.Bcc.log_budget ~c:1 };
    init = Core.Bcc.make_state;
    send = (fun ~round:_ s -> (Core.Message.empty, s));
    receive = (fun ~round:_ ~broadcast:_ s -> s);
    referee =
      Core.Bcc.Referee
        {
          r_init = (fun ~n:_ -> ());
          r_absorb = (fun ~n:_ ~round:_ () ~id:_ _ -> ());
          r_broadcast =
            (fun ~n ~round:_ () ->
              let w = Bit_writer.create () in
              Codes.write_fixed w ~width:(2 * Core.Bounds.id_bits n) 0;
              ((), Core.Message.of_writer w));
          r_finish = (fun ~n:_ () -> ());
        };
    audit = None;
  }

let test_budget_violation () =
  let g = Generators.cycle 16 in
  (match Core.Bcc.run (chatty ()) g with
  | _ -> Alcotest.fail "over-budget send must raise"
  | exception Core.Bcc.Budget_exceeded { round; id; bits; limit } ->
    Alcotest.(check int) "round" 1 round;
    Alcotest.(check int) "first offender" 1 id;
    Alcotest.(check int) "bits" (2 * Core.Bounds.id_bits 16) bits;
    Alcotest.(check int) "limit" (Core.Bounds.id_bits 16) limit);
  match Core.Bcc.run (shouty ()) g with
  | _ -> Alcotest.fail "over-budget broadcast must raise"
  | exception Core.Bcc.Budget_exceeded { id; _ } ->
    Alcotest.(check int) "referee is id 0" 0 id

(* ---------- budget validation ---------- *)

(* A protocol that sends nothing, parameterized by its budget: the only
   thing the entry points can object to is the contract itself. *)
let quiet_with budget : unit Core.Bcc.t =
  {
    Core.Bcc.name = "bcc-test-quiet";
    budget;
    init = Core.Bcc.make_state;
    send = (fun ~round:_ s -> (Core.Message.empty, s));
    receive = (fun ~round:_ ~broadcast:_ s -> s);
    referee =
      Core.Bcc.Referee
        {
          r_init = (fun ~n:_ -> ());
          r_absorb = (fun ~n:_ ~round:_ () ~id:_ _ -> ());
          r_broadcast = (fun ~n:_ ~round:_ () -> ((), Core.Message.empty));
          r_finish = (fun ~n:_ () -> ());
        };
    audit = None;
  }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_invalid name ~naming f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument msg ->
    if not (contains_sub msg naming) then
      Alcotest.failf "%s: Invalid_argument %S does not name %S" name msg naming
  | exception Core.Bcc.Budget_exceeded _ ->
    Alcotest.failf "%s: surfaced as Budget_exceeded, wanted Invalid_argument" name

let test_budget_constructor () =
  check_invalid "rounds = 0" ~naming:"rounds" (fun () ->
      Core.Bcc.budget ~rounds:0 ~bits_per_round:Core.Bcc.unbounded);
  check_invalid "rounds = -3" ~naming:"rounds" (fun () ->
      Core.Bcc.budget ~rounds:(-3) ~bits_per_round:Core.Bcc.unbounded);
  let b = Core.Bcc.budget ~rounds:2 ~bits_per_round:(Core.Bcc.log_budget ~c:1) in
  Alcotest.(check int) "rounds kept" 2 b.Core.Bcc.rounds;
  Alcotest.(check int) "cap kept" (Core.Bounds.id_bits 16) (b.Core.Bcc.bits_per_round 16)

let test_budget_validated_at_entry () =
  let g = Generators.cycle 8 in
  (* Hand-built records bypass the constructor; the entry points still
     name the field rather than raising a spurious Budget_exceeded. *)
  check_invalid "run rounds = 0" ~naming:"rounds" (fun () ->
      Core.Bcc.run (quiet_with { Core.Bcc.rounds = 0; bits_per_round = Core.Bcc.unbounded }) g);
  check_invalid "run cap = 0" ~naming:"bits_per_round" (fun () ->
      Core.Bcc.run (quiet_with { Core.Bcc.rounds = 1; bits_per_round = (fun _ -> 0) }) g);
  check_invalid "run cap < 0" ~naming:"bits_per_round" (fun () ->
      Core.Bcc.run (quiet_with { Core.Bcc.rounds = 1; bits_per_round = (fun _ -> -7) }) g);
  let faulty = Core.Simulator.Faulty Core.Faults.empty in
  check_invalid "faulty rounds = 0" ~naming:"rounds" (fun () ->
      Core.Bcc.run ~delivery:faulty
        (quiet_with { Core.Bcc.rounds = 0; bits_per_round = Core.Bcc.unbounded }) g);
  check_invalid "faulty cap = 0" ~naming:"bits_per_round" (fun () ->
      Core.Bcc.run ~delivery:faulty
        (quiet_with { Core.Bcc.rounds = 1; bits_per_round = (fun _ -> 0) }) g);
  (* A valid contract through the same quiet protocol still runs. *)
  let _, t =
    Core.Bcc.run (quiet_with (Core.Bcc.budget ~rounds:1 ~bits_per_round:(Core.Bcc.log_budget ~c:1))) g
  in
  Alcotest.(check int) "valid budget runs" 1 t.Core.Bcc.rounds

(* ---------- transcript determinism ---------- *)

let transcript_eq = Alcotest.testable (fun fmt (_ : Core.Bcc.transcript) -> Format.fprintf fmt "<transcript>") ( = )

let transcript_sources spec =
  let fam = Implicit.parse spec in
  [
    ("implicit", Graph_source.of_implicit fam);
    ("materialized", Graph_source.of_graph (Implicit.materialize fam));
    ("csr", Graph_source.of_csr (Graph_source.to_csr (Graph_source.of_implicit fam)));
  ]

let test_transcript_equality () =
  (* Same labelled graph through all three backends, every chunk size, a
     wider domain pool: bit-identical transcript, same output. *)
  let check_family spec p =
    let sources = transcript_sources spec in
    let implicit = List.assoc "implicit" sources in
    let base_out, base_t = Core.Bcc.run_source p implicit in
    List.iter
      (fun (backend, src) ->
        List.iter
          (fun chunk ->
            List.iter
              (fun domains ->
                let out, t = Core.Bcc.run_source ~domains ~chunk p src in
                let tag = Printf.sprintf "%s %s chunk=%d domains=%d" spec backend chunk domains in
                Alcotest.check bool_opt tag base_out out;
                Alcotest.check transcript_eq tag base_t t)
              [ 1; 4 ])
          [ 1; 7; 64; Graph_source.order implicit ])
      sources;
    base_out
  in
  Alcotest.check bool_opt "baseline decides" (Some true)
    (check_family "cycle:96" (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:1 ()));
  List.iter
    (fun spec -> ignore (check_family spec (Core.Bcc_connectivity.protocol ~rounds:4 ~bandwidth:2 ())))
    [ "path:40"; "grid:5x8"; "regular:40:4:7"; "degenerate:40:3:5" ];
  let sources = transcript_sources "cycle:96" in
  (* Same discipline for the adaptive protocol. *)
  let q = Core.Bcc.Adaptive_degeneracy.protocol () in
  let out0, t0 = Core.Bcc.run_source q (List.assoc "implicit" sources) in
  List.iter
    (fun (backend, src) ->
      let out, t = Core.Bcc.run_source ~domains:4 ~chunk:5 q src in
      Alcotest.check graph_opt backend out0 out;
      Alcotest.check transcript_eq backend t0 t)
    sources

(* ---------- node-state semantics ---------- *)

(* A probe that reads one view field per callback and ships its stash:
   [init] reads [deg] and stashes a marker carrying it, [receive] reads
   [n] and stashes the broadcast (checking it is the reply to the round
   it is told), [send] reads [id] and sends it ahead of the stash, most
   recent first.  The referee records what every node sent in every
   round and broadcasts [100 + round]. *)
let probe_width = 16

let probe_encode values =
  let w = Bit_writer.create () in
  List.iter (Codes.write_fixed w ~width:probe_width) values;
  Core.Message.of_writer w

let probe_decode msg =
  let r = Core.Message.reader msg in
  List.init (Core.Message.bits msg / probe_width) (fun _ -> Codes.read_fixed r ~width:probe_width)

let probe ~rounds : int list array array Core.Bcc.t =
  {
    Core.Bcc.name = "bcc-test-probe";
    budget = Core.Bcc.budget ~rounds ~bits_per_round:Core.Bcc.unbounded;
    init =
      (fun v -> Core.Bcc.push_extra (Core.Bcc.make_state v) (probe_encode [ Core.View.deg v ]));
    send =
      (fun ~round:_ s ->
        let id = Core.View.id (Core.Bcc.state_view s) in
        (probe_encode (id :: List.concat_map probe_decode (Core.Bcc.state_extra s)), s));
    receive =
      (fun ~round ~broadcast s ->
        ignore (Core.View.n (Core.Bcc.state_view s) : int);
        if probe_decode broadcast <> [ 100 + round ] then
          invalid_arg "bcc-test-probe: broadcast delivered under the wrong round";
        Core.Bcc.push_extra s broadcast);
    referee =
      Core.Bcc.Referee
        {
          r_init = (fun ~n -> Array.init rounds (fun _ -> Array.make n []));
          r_absorb =
            (fun ~n:_ ~round seen ~id msg ->
              seen.(round - 1).(id - 1) <- probe_decode msg;
              seen);
          r_broadcast = (fun ~n:_ ~round seen -> (seen, probe_encode [ 100 + round ]));
          r_finish = (fun ~n:_ seen -> seen);
        };
    audit = None;
  }

let test_node_state_semantics () =
  let rounds = 3 in
  let fam = Implicit.parse "grid:3x4" in
  let n = Implicit.order fam in
  let p = probe ~rounds in
  (* Round r: the node's id, then the broadcasts of rounds r-1 .. 1,
     then the marker [init] stashed. *)
  let expected_out =
    Array.init rounds (fun r ->
        Array.init n (fun i ->
            ((i + 1) :: List.init r (fun k -> 100 + r - k)) @ [ Implicit.degree fam (i + 1) ]))
  in
  (* [init]'s read is not round 1's; [receive]'s lands in the next
     round's [Node_local]. *)
  let expected_locals =
    List.concat
      (List.init rounds (fun r ->
           List.init n (fun i ->
               ( i + 1,
                 probe_width * (r + 2),
                 { Core.View.id_reads = 1; n_reads = (if r = 0 then 0 else 1); deg_reads = 0;
                   neighbor_reads = 0 } ))))
  in
  let locals events =
    List.filter_map
      (function
        | Core.Trace.Node_local { id; bits; queries } -> Some (id, bits, queries) | _ -> None)
      events
  in
  let sources =
    [
      ("implicit", Graph_source.of_implicit fam);
      ("materialized", Graph_source.of_graph (Implicit.materialize fam));
      ("csr", Graph_source.of_csr (Graph_source.to_csr (Graph_source.of_implicit fam)));
    ]
  in
  let _, reference = Core.Bcc.run_source p (List.assoc "implicit" sources) in
  let deliveries =
    [
      ("in order", fun () -> Core.Simulator.In_order);
      ("faulty empty", fun () -> Core.Simulator.Faulty Core.Faults.empty);
      ("shuffled", fun () -> Core.Simulator.Shuffled (Random.State.make [| 0x5eed; 16 |]));
    ]
  in
  List.iter
    (fun (backend, src) ->
      List.iter
        (fun (label, delivery) ->
          List.iter
            (fun chunk ->
              List.iter
                (fun domains ->
                  let tag =
                    Printf.sprintf "%s %s chunk=%s width %d" backend label
                      (match chunk with None -> "none" | Some c -> string_of_int c)
                      domains
                  in
                  let sink, drain = Core.Trace.memory () in
                  let out, t =
                    Core.Bcc.run_source ?chunk ~delivery:(delivery ()) ~domains ~trace:sink p src
                  in
                  Alcotest.(check bool) (tag ^ ": stashes, most recent first") true
                    (out = expected_out);
                  Alcotest.check transcript_eq (tag ^ ": transcript") reference t;
                  Alcotest.(check bool) (tag ^ ": per-round query deltas") true
                    (locals (drain ()) = expected_locals))
                [ 1; 4 ])
            [ None; Some 1; Some 5 ])
        deliveries)
    sources

(* ---------- faults and hardening ---------- *)

let test_empty_plan_bit_identical () =
  let g = Generators.petersen () in
  let p = Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:1 () in
  let out, t = Core.Bcc.run p g in
  let out', t' = Core.Bcc.run ~delivery:(Core.Simulator.Faulty Core.Faults.empty) p g in
  Alcotest.check bool_opt "same output" out out';
  Alcotest.check transcript_eq "same transcript" t t';
  Alcotest.(check (list int)) "no faults" [] t'.Core.Bcc.faulted_ids

let test_crash_degrades_connected () =
  (* Crash a middle node of a path: its edges are still announced by the
     neighbours, so the spanning certificate survives -> Degraded. *)
  let g = Generators.path 10 in
  let p = Core.Bcc_connectivity.hardened ~rounds:11 ~bandwidth:1 () in
  let plan = Core.Faults.of_list [ (3, Core.Faults.Crash) ] in
  let v, t = Core.Bcc.run ~delivery:(Core.Simulator.Faulty plan) p g in
  (match v with
  | Core.Verdict.Degraded (Some true, report) ->
    Alcotest.(check (list int)) "missing" [ 3 ] report.Core.Verdict.missing
  | _ -> Alcotest.fail "expected Degraded (Some true, _)");
  Alcotest.(check (list int)) "faulted ids recorded" [ 3 ] t.Core.Bcc.faulted_ids

let test_crash_never_asserts_disconnected () =
  (* On a disconnected graph a crash kills the full-knowledge check, so
     the salvaged answer is withheld. *)
  let p = Core.Bcc_connectivity.hardened ~rounds:3 ~bandwidth:1 () in
  let plan = Core.Faults.of_list [ (1, Core.Faults.Crash) ] in
  let v, _ = Core.Bcc.run ~delivery:(Core.Simulator.Faulty plan) p two_triangles in
  match v with
  | Core.Verdict.Inconclusive _ -> ()
  | _ -> Alcotest.fail "expected Inconclusive"

let test_clean_channel_decides () =
  let p = Core.Bcc_connectivity.hardened ~rounds:3 ~bandwidth:1 () in
  match Core.Bcc.run ~delivery:(Core.Simulator.Faulty Core.Faults.empty) p two_triangles with
  | Core.Verdict.Decided (Some false), _ -> ()
  | _ -> Alcotest.fail "clean channel must yield Decided (Some false)"

let prop_no_wrong_verdict_under_faults =
  QCheck2.Test.make ~name:"hardened connectivity never lies under crash/truncate plans" ~count:80
    QCheck2.Gen.(triple (int_range 2 16) (int_range 0 9) int)
    (fun (n, p10, seed) ->
      let rng = Random.State.make [| seed; n; p10 |] in
      let g = Generators.gnp rng n (float_of_int p10 /. 10.0) in
      let bandwidth = 2 in
      let rounds = Core.Bcc_connectivity.rounds_for ~bandwidth ~max_degree:(max_degree_of g) in
      let plan = Core.Faults.random ~seed ~n ~crash:0.3 ~truncate:0.2 () in
      let p = Core.Bcc_connectivity.hardened ~rounds ~bandwidth () in
      let v, _ = Core.Bcc.run ~delivery:(Core.Simulator.Faulty plan) p g in
      match v with
      | Core.Verdict.Decided (Some b) | Core.Verdict.Degraded (Some b, _) ->
        b = Connectivity.is_connected g
      | Core.Verdict.Decided None | Core.Verdict.Degraded (None, _) | Core.Verdict.Inconclusive _ ->
        true)

(* ---------- observability: spans, [round=] audit, metrics ---------- *)

let test_trace_round_spans () =
  let sink, drain = Core.Trace.memory () in
  let p = Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:1 () in
  let _ = Core.Bcc.run ~trace:sink p (Generators.cycle 16) in
  let events = drain () in
  Alcotest.(check bool) "balanced spans" true (Core.Trace.balanced_spans events);
  let round_spans =
    List.filter
      (function
        | Core.Trace.Span_begin { label; _ } ->
          String.length label > 17 && String.sub label 0 17 = "bcc-connectivity-"
          && String.length label > 18
        | _ -> false)
      events
  in
  (* Outer span + one span per round carry the round decoration. *)
  Alcotest.(check bool) "per-round spans present" true
    (List.exists
       (function
         | Core.Trace.Span_begin { label = "bcc-connectivity-1[round=2]"; _ } -> true
         | _ -> false)
       round_spans);
  Alcotest.(check int) "two broadcasts" 2
    (List.length
       (List.filter (function Core.Trace.Referee_broadcast _ -> true | _ -> false) events))

let test_round_label_audit () =
  (* Each round's done event carries the protocol's per-round budget,
     c = 1 at bandwidth 2: a round at the cap passes, one bit over fails. *)
  let budget = (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:2 ()).audit in
  let fit = 2 * Core.Bounds.id_bits 512 in
  let passed bits =
    let r = Core.Report.create () in
    Core.Report.ingest_event r
      (Core.Trace.Referee_done
         { label = "bcc-connectivity-2[round=3]"; n = 512; max_bits = bits; total_bits = bits; budget });
    match Core.Report.verdicts r with
    | [ v ] -> v.Core.Bound_audit.v_passed
    | _ -> Alcotest.fail "expected one audited round"
  in
  Alcotest.(check bool) "at the cap passes" true (passed fit);
  Alcotest.(check bool) "over the cap fails" false (passed (fit + 1))

let test_report_roundtrip () =
  (* A live BCC run rendered through the report's own line parser: every
     event ingests, the [round=] labels land in the audit table, and the
     within-budget run leaves no violations. *)
  let r = Core.Report.create () in
  let p = Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:2 () in
  let out, _ = Core.Bcc.run ~trace:(Core.Report.sink r) p (Generators.cycle 48) in
  Alcotest.check bool_opt "decided" (Some true) out;
  Alcotest.(check bool) "events ingested" true (Core.Report.events r > 0);
  let labels = List.map (fun v -> v.Core.Bound_audit.v_label) (Core.Report.verdicts r) in
  Alcotest.(check bool) "round label audited" true
    (List.mem "bcc-connectivity-2[round=2]" labels);
  Alcotest.(check int) "no violations" 0 (List.length (Core.Report.violations r))

let test_metrics_rounds_counter () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let p = Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:1 () in
  let _ = Core.Bcc.run ~metrics:m p (Generators.cycle 16) in
  let _ = Core.Bcc.run ~metrics:m p (Generators.path 8) in
  Alcotest.(check int) "refnet_bcc_rounds_total" 6
    (Core.Metrics.Counter.value (Core.Metrics.Counter.counter m "refnet_bcc_rounds_total"))

(* ---------- properties (ported from the Multi_round suite) ---------- *)

let prop_adaptive_on_gnp =
  QCheck2.Test.make ~name:"adaptive 2-round reconstructs arbitrary G(n,p)" ~count:60
    QCheck2.Gen.(triple (int_range 1 20) (int_range 1 9) int)
    (fun (n, p10, seed) ->
      let rng = Random.State.make [| seed; n; p10 |] in
      let g = Generators.gnp rng n (float_of_int p10 /. 10.0) in
      fst (run_adaptive g) = Some g)

let prop_khat_scales_budget =
  QCheck2.Test.make ~name:"round-2 bits follow the k-hat budget formula" ~count:40
    QCheck2.Gen.(pair (int_range 2 20) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.gnp rng n 0.3 in
      let degrees = Array.of_list (List.map (Graph.degree g) (Graph.vertices g)) in
      let k = max 1 (Core.Bcc.Adaptive_degeneracy.degree_bound degrees) in
      let _, t = run_adaptive g in
      t.Core.Bcc.per_round_max_bits.(1) = Core.Degeneracy_protocol.message_bits ~k n)

let prop_connectivity_on_gnp =
  QCheck2.Test.make ~name:"connectivity matches the oracle on G(n,p)" ~count:80
    QCheck2.Gen.(triple (int_range 1 24) (int_range 0 9) int)
    (fun (n, p10, seed) ->
      let rng = Random.State.make [| seed; n; p10 |] in
      let g = Generators.gnp rng n (float_of_int p10 /. 10.0) in
      fst (decide_conn ~bandwidth:2 g) = Some (Connectivity.is_connected g))

let () =
  Alcotest.run "bcc"
    [
      ( "degree bound",
        [
          Alcotest.test_case "values" `Quick test_degree_bound_values;
          Alcotest.test_case "dominates degeneracy" `Quick test_degree_bound_dominates_degeneracy;
        ] );
      ( "adaptive protocol",
        [
          Alcotest.test_case "reconstructs without knowing k" `Quick
            test_adaptive_reconstructs_without_k;
          Alcotest.test_case "transcript shape" `Quick test_adaptive_transcript_shape;
          Alcotest.test_case "bits track sparseness" `Quick test_adaptive_bits_track_sparseness;
          Alcotest.test_case "one-round embedding" `Quick test_of_one_round_embedding;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "matches oracle" `Quick test_connectivity_vs_oracle;
          Alcotest.test_case "insufficient rounds" `Quick test_connectivity_insufficient_rounds;
          Alcotest.test_case "early stop" `Quick test_connectivity_early_stop;
          Alcotest.test_case "implicit families vs oracle" `Quick
            test_connectivity_implicit_families_oracle;
          Alcotest.test_case "n = 10^5 implicit" `Slow test_connectivity_large_implicit;
          Alcotest.test_case "circulant closed form" `Quick test_circulant_oracle;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget violation" `Quick test_budget_violation;
          Alcotest.test_case "budget constructor validates" `Quick test_budget_constructor;
          Alcotest.test_case "budget validated at entry" `Quick test_budget_validated_at_entry;
          Alcotest.test_case "transcript equality" `Quick test_transcript_equality;
          Alcotest.test_case "node-state semantics" `Quick test_node_state_semantics;
        ] );
      ( "faults",
        [
          Alcotest.test_case "empty plan bit-identical" `Quick test_empty_plan_bit_identical;
          Alcotest.test_case "crash degrades connected" `Quick test_crash_degrades_connected;
          Alcotest.test_case "crash never asserts disconnected" `Quick
            test_crash_never_asserts_disconnected;
          Alcotest.test_case "clean channel decides" `Quick test_clean_channel_decides;
        ] );
      ( "observability",
        [
          Alcotest.test_case "round spans" `Quick test_trace_round_spans;
          Alcotest.test_case "[round=] audit" `Quick test_round_label_audit;
          Alcotest.test_case "report round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "rounds counter" `Quick test_metrics_rounds_counter;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_adaptive_on_gnp;
            prop_khat_scales_budget;
            prop_connectivity_on_gnp;
            prop_no_wrong_verdict_under_faults;
          ] );
    ]
