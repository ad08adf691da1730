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
