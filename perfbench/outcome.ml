(* What a workload run hands back to [Refbench], and the per-layer
   metric table computed from the traced pass's spans. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  problems : string list; (* daemon drain failures and other hard errors *)
  e2e : metric list;
  layers : metric list;
}

let m name unit_ value = { name; value; unit_ }

let say fmt = Printf.printf (fmt ^^ "\n%!")

let print_metrics title ms =
  say "%s" title;
  List.iter (fun x -> say "  %-32s %16.6f %s" x.name x.value x.unit_) ms

(* Values the spans cannot give: measured around whole passes or read
   from the daemon and the runtime. *)
type extra = {
  speedup : float;
  inproc_sessions_per_s : float;
  daemon_us_per_session : float;
  sheds : float;
  quarantines : float;
  escapes : float;
  client_p99_ms : float;
  alloc_per_node : float;
  alloc_per_session : float;
  major_collections : float;
  overhead_x : float;
}

let count tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.Span.count | None -> 0

(* [mean_self tbl name ~scale] is the mean self time of one [name] span. *)
let mean_self tbl name ~scale =
  match count tbl name with
  | 0 -> 0.
  | c -> Span.self_s tbl name *. scale /. float_of_int c

let layer_metrics rec_ ~frames x =
  let tbl = Span.aggregate rec_ in
  let ns name = Span.per_unit tbl name ~scale:1e9 in
  let wire_ns =
    if frames = 0 then 0.
    else (Span.self_s tbl "wire.encode" +. Span.self_s tbl "wire.decode") *. 1e9 /. float_of_int frames
  in
  let per_span name =
    match count tbl name with 0 -> 0. | c -> Span.units tbl name /. float_of_int c
  in
  [
    m "bits.write_ns_per_bit" "ns/bit" (ns "bits.write");
    m "bits.read_ns_per_bit" "ns/bit" (ns "bits.read");
    m "message.seal_ns_per_bit" "ns/bit" (ns "message.seal");
    m "message.unseal_ns_per_bit" "ns/bit" (ns "message.unseal");
    m "wire.encode_ns_per_byte" "ns/B" (ns "wire.encode");
    m "wire.decode_ns_per_byte" "ns/B" (ns "wire.decode");
    m "wire.ns_per_frame" "ns" wire_ns;
    m "wire.bytes_per_session" "B" (per_span "wire.encode");
    m "referee.absorb_ns_per_msg" "ns" (ns "referee.absorb");
    m "referee.finish_us" "us" (mean_self tbl "referee.finish" ~scale:1e6);
    m "local.ns_per_node" "ns" (ns "local");
    m "graph_source.ns_per_node" "ns" (ns "graph_source");
    m "parallel.speedup" "x" x.speedup;
    m "bcc.round_ms.r1" "ms" (mean_self tbl "bcc.round.1" ~scale:1e3);
    m "bcc.round_ms.r2" "ms" (mean_self tbl "bcc.round.2" ~scale:1e3);
    m "bcc.round_ms.r3" "ms" (mean_self tbl "bcc.round.3" ~scale:1e3);
    m "bcc.total_bits" "bit" (per_span "bcc.run");
    m "engine.inproc_sessions_per_s" "1/s" x.inproc_sessions_per_s;
    m "engine.tick_us" "us" (mean_self tbl "engine.tick" ~scale:1e6);
    m "engine.feed_ns_per_byte" "ns/B" (ns "engine.feed");
    m "daemon.us_per_session" "us" x.daemon_us_per_session;
    m "daemon.sheds" "count" x.sheds;
    m "daemon.quarantines" "count" x.quarantines;
    m "daemon.escapes" "count" x.escapes;
    m "client.session_p99_ms" "ms" x.client_p99_ms;
    m "gc.alloc_bytes_per_node" "B" x.alloc_per_node;
    m "gc.alloc_bytes_per_session" "B" x.alloc_per_session;
    m "gc.major_collections" "count" x.major_collections;
    m "trace.overhead_x" "x" x.overhead_x;
  ]

(* The span table: self time and work per span name, heaviest first. *)
let print_span_table rec_ =
  say "per-layer self time (traced pass):";
  say "  %-24s %8s %12s %16s" "span" "count" "self_ms" "units";
  List.iter
    (fun (name, a) ->
      say "  %-24s %8d %12.3f %16.0f" name a.Span.count (a.Span.self_s *. 1e3)
        a.Span.units_sum)
    (Span.table rec_)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections
