(* Allowlists are deny-by-default: a module added tomorrow is subject
   to every rule until it is listed here, with its reason, or carries a
   per-line suppression.  Keep each entry justified — the reviewer of a
   policy change is reviewing an information-flow exception. *)

let has_substring s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let matches path entries =
  let path = "/" ^ path in
  List.exists
    (fun entry ->
      if String.length entry > 0 && entry.[String.length entry - 1] = '/' then
        has_substring path ("/" ^ entry)
      else String.ends_with ~suffix:("/" ^ entry) path)
    entries

(* View.t constructors (Definition 1's boundary): the engine builds real
   nodes' views, the reductions and the fooling-set harness evaluate
   locals on fictitious views — exactly the list in view.mli. *)
let view_builders =
  [
    "lib/core/simulator.ml" (* engine: one view per real node *);
    "lib/core/coalition.ml" (* engine: coalition runs *);
    "lib/core/bcc.ml" (* engine: multi-round views *);
    "lib/core/reduction.ml" (* referee-side gadget-vertex probes *);
    "lib/core/bipartite_reduction.ml" (* referee-side gadget-vertex probes *);
    "lib/core/fooling.ml" (* lower-bound harness: evaluates locals on candidate views *);
    "lib/core/view.ml" (* the constructor itself *);
  ]

(* Wall-clock reads: Metrics owns the clock (injected, so tests can fix
   it); the bench harness stamps its own JSON output.  The serve layer
   reads wall time only at its edges — everything inward takes an
   injected clock so timeout paths stay testable. *)
let clock_ok =
  [
    "lib/core/metrics.ml";
    "bench/main.ml";
    "lib/serve/engine.ml" (* the *default* clock only; create ?clock injects *);
    "lib/serve/daemon.ml" (* select-loop pacing against real sockets *);
    "lib/serve/selftest.ml" (* throughput measurement; the engine under test runs virtual *);
    "lib/lint/driver.ml" (* lint wall-time in the --json report; the linter is not a model run *);
  ]

(* Unix socket / file-descriptor syscalls: only the serve transport may
   talk to the kernel.  The engine is transport-free by construction
   (bytes in, bytes out), so every syscall lives in these two files and
   model runs stay kernel-free and reproducible. *)
let unix_ok =
  [
    "lib/serve/daemon.ml" (* listener + select loop: the server-side transport *);
    "lib/serve/client.ml" (* blocking connector: the client-side transport *);
  ]

(* Domain.spawn: the deterministic domain pool is the only place new
   domains may be born — everything else goes through Parallel. *)
let spawn_ok = [ "lib/core/parallel.ml" ]

(* bench/main.ml's failwith calls are bench assertions: a violated
   invariant must abort the campaign, loudly.  Nothing in bench runs
   inside a referee. *)
let totality_exempt = [ "bench/main.ml" ]

(* ---------- deep-pass policy (callgraph rules) ---------- *)

(* Roots of the blocking-call reachability pass: the serve daemon's
   select loop.  Everything reachable from here on the call graph must
   stay non-blocking, or a slow client stalls every session on the
   shard. *)
let blocking_roots = [ ("lib/serve/daemon.ml", "run") ]

(* Allowlisted poll points: the only functions (matched by file plus any
   component of the nested definition path) where descriptor I/O
   syscalls (read/write/accept/select/...) may appear on a path from a
   blocking root.  Hard-blocking calls (sleepf, connect, DNS) are never
   allowed on such a path — those need a per-line justification. *)
let poll_points =
  [
    ("lib/serve/daemon.ml", "run")
    (* the select loop itself: reads/writes only fire on select-ready
       descriptors, and every conn fd is set_nonblock at accept *);
    ("lib/serve/daemon.ml", "answer_scrape")
    (* deliberate short blocking read, bounded by SO_RCVTIMEO = 0.2 s;
       scrapers send the full GET immediately *);
  ]

(* Modules exempt from the parallel-race pass as a whole: the domain
   pool itself (its batch bookkeeping is the synchronization the rule
   assumes) — everything else justifies each captured write per line. *)
let race_ok = [ "lib/core/parallel.ml" ]

(* Raw Bytes/Buffer: the byte layers themselves, plus the
   string-rendering modules (JSON/graph6 codecs, trace sinks).  Protocol
   modules never appear here — their bits go through Message. *)
let bytes_ok =
  [
    "lib/bits/" (* the sanctioned bit layer *);
    "lib/bigint/" (* limb storage for Nat *);
    "lib/algebra/power_sum.ml" (* memo-table scratch *);
    "lib/json/" (* the JSON reader's and escaper's string buffers *);
    "lib/graph/gio.ml" (* graph6 / edge-list codecs *);
    "lib/graph/treewidth.ml" (* bitset DP tables *);
    "lib/core/message.ml" (* the message layer itself *);
    "lib/core/trace.ml" (* JSONL rendering *);
    "lib/core/report.ml" (* report JSON rendering *);
    "lib/core/metrics.ml" (* exposition formats *);
    "lib/core/fooling.ml" (* transcript fingerprints, not messages *);
    "lib/lint/" (* the linter's own string rendering *);
    "lib/serve/" (* transport framing: wire bytes, not message bits — in-frame
                    payloads still round-trip through Message *);
  ]

(* ---------- unused-export allowlist ---------- *)

(* Exports whose only callers the deep pass does not scan: tests, which
   check the code against them, and perfbench, which cannot be linted.
   Keyed by module name; the comment says who calls. *)
let test_oracles =
  List.concat_map
    (fun (m, values) -> List.map (fun v -> (m, v)) values)
    [
      (* test_newton: the decoder's identities *)
      ( "Newton",
        [ "elementary_of_power_sums"; "power_sums_of_elementary"; "power_sums"; "elementary" ] );
      (* test_poly's ring laws; test_newton *)
      ( "Poly",
        [ "zero"; "one"; "degree"; "coeff"; "equal"; "constant"; "add"; "sub"; "mul"; "scale";
          "eval"; "derivative"; "from_roots"; "deflate"; "pp" ] );
      (* test_power_sum's "encode = Vandermonde apply" oracle *)
      ("Vandermonde", [ "make"; "apply" ]);
      (* test_bigint's laws; test_newton's printer *)
      ("Bigint", [ "to_nat"; "sign"; "abs"; "divmod"; "compare"; "of_string"; "to_string" ]);
      (* test_nat's laws; test_power_sum's printer *)
      ("Nat", [ "to_int"; "shift_left"; "shift_right"; "pp" ]);
      ("Bit_reader", [ "position" ]) (* test_bit_io *);
      ("Bit_writer", [ "length"; "append" ]) (* test_bit_io, test_model, test_sketch *);
      (* test_bitvec's set-algebra laws *)
      ( "Bitvec",
        [ "clear"; "compare"; "of_list"; "union"; "diff"; "complement"; "is_empty"; "subset";
          "to_packed" ] );
      (* test_bit_io's round trips; test_fuzz *)
      ( "Codes",
        [ "write_unary"; "read_unary"; "write_gamma"; "read_gamma"; "write_delta"; "read_delta" ] );
      (* test_bcc; the of_one_round embedding equivalence *)
      ("Bcc", [ "budget"; "unbounded"; "of_one_round" ]);
      ("Bcc_connectivity", [ "circulant_connected" ]) (* test_bcc; perfbench's circulant oracle *);
      ("Bipartite_reduction", [ "odd_cycle_gadget" ]) (* test_bipartite_reduction *);
      ("Bound_audit", [ "shape_units"; "pp_shape" ]) (* test_metrics' budget checks *);
      (* test_reduction's blow-up checks *)
      ( "Bounds",
        [ "reduction_blowup_square"; "reduction_blowup_diameter"; "reduction_blowup_triangle" ] );
      ("Connectivity_parts", [ "spanning_forest_messages" ]) (* test_connectivity_parts *);
      ("Counting", [ "reconstructible"; "family_name" ]) (* test_counting *);
      (* test_easy_protocols, test_streaming *)
      ("Easy_protocols", [ "has_edge"; "has_universal_vertex"; "sum_of_ids_check" ]);
      (* fault plans in the fault-model tests *)
      ("Faults", [ "is_empty"; "of_list"; "to_list"; "ids" ]);
      ("Flight", [ "capacity"; "trace_of_hex" ]) (* test_flight *);
      ("Fooling", [ "certify" ]) (* test_fooling *);
      ("Generalized_degeneracy", [ "message_bits" ]) (* test_generalized *);
      ("Message", [ "write_framed"; "equal" ]) (* round-trip oracles; perfbench *);
      (* tests read instruments back *)
      ( "Metrics",
        [ "Gauge.value"; "Histogram.count"; "Histogram.sum"; "Histogram.max_value";
          "Histogram.buckets"; "Histogram.quantile"; "Timer.count"; "Timer.total";
          "Timer.by_domain"; "to_json" ] );
      ("Parallel", [ "domain_count"; "iter_range" ]) (* perfbench's pool *);
      (* test_faults, test_fuzz, test_metrics, test_streaming *)
      ("Protocol", [ "run_referee"; "harden" ]);
      ("Protocol_search", [ "to_protocol"; "neighborhood_mask" ]) (* test_protocol_search *);
      ("Recognition", [ "is_forest" ]) (* test_recognition *);
      ("Report", [ "ingest_event"; "sink"; "events"; "verdicts" ]) (* trace-replay tests *);
      (* perfbench's local phase; frugality tests *)
      ("Simulator", [ "local_phase_source"; "is_frugal" ]);
      (* test_sketch_connectivity's record-fold oracle *)
      ("Sketch_connectivity", [ "templates"; "edge_index"; "edge_of_index" ]);
      ("Trace", [ "balanced_spans" ]) (* span-nesting checks *);
      ("Verdict", [ "is_decided" ]) (* test_streaming *);
      ("View", [ "queries" ]) (* test_streaming *);
      ("Bipartite", [ "bipartition"; "respects_parts" ]) (* test_bipartite, test_generators *);
      ("Connectivity", [ "components"; "same_component" ]) (* graph oracles of the graph tests *);
      ("Csr", [ "of_edges"; "has_edge" ]) (* test_graph_source *);
      (* graph oracles of the graph and protocol tests *)
      ("Cycles", [ "find_triangle"; "find_square"; "is_acyclic" ]);
      (* test_degeneracy *)
      ( "Degeneracy",
        [ "elimination_order"; "is_elimination_order"; "generalized_elimination_order" ] );
      ("Distance", [ "pairwise"; "eccentricity"; "radius" ]) (* test_traversal *);
      ("Enumerate", [ "count_bipartite_between"; "all_edge_slots" ]) (* test_enumerate *);
      (* test graph families; test_product *)
      ("Generators", [ "complete_bipartite"; "caterpillar"; "random_regular" ]);
      (* graph oracles and printer of the tests *)
      ("Graph", [ "fold_vertices"; "induced"; "remove_vertex"; "relabel"; "is_subgraph"; "pp" ]);
      (* backend cross-checks; perfbench *)
      ("Graph_source", [ "of_csr"; "iter_neighbors"; "materialize" ]);
      ("Implicit", [ "degenerate_window"; "make"; "has_edge" ]) (* test_graph_source *);
      ("Parameters", [ "average_degree"; "density"; "h_index"; "max_core" ]) (* test_parameters *);
      ("Spanning", [ "spanning_forest" ]) (* test_spanning *);
      ("Subgraph", [ "find"; "count"; "induced_contains" ]) (* test_subgraph *);
      ("Traversal", [ "bfs_tree"; "dfs_order" ]) (* test_traversal *);
      ("Treewidth", [ "elimination_cost"; "width_of_order" ]) (* test_treewidth *);
      ("Union_find", [ "same" ]) (* test_spanning *);
      ("Baseline", [ "of_report" ]) (* test_lint *);
      ("Driver", [ "lint_source"; "lint_file"; "deep_sources" ]) (* test_lint's fixture harness *);
      ("Engine", [ "evidence_count"; "draining" ]) (* test_serve *);
      (* test_serve, test_fuzz; perfbench *)
      ("Frame", [ "encode_server"; "decode_client"; "pp_client"; "pp_server" ]);
      ("Registry", [ "render_graph" ]) (* test_serve *);
      ("Wire", [ "encode" ]) (* test_serve *);
      ("Field", [ "sub"; "neg" ]) (* test_sketch *);
      ("Hash", [ "apply"; "seed_family" ]) (* test_sketch *);
      (* test_sketch, test_sketch_connectivity *)
      ("L0_sampler", [ "update"; "combine"; "sample"; "write"; "read" ]);
      ("One_sparse", [ "update" ]) (* test_sketch *);
    ]
