(* refbench: run one named workload from one seed and print every
   metric by name with its unit.  The last stdout line is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with
   the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
   Exit 0 only when every output was correct and every daemon drained
   with exit 0.

   Usually started through perfbench/run.py, which builds this file and
   bin/refnet.exe first. *)

type size = Full | Tiny

type workload =
  | Served of Served.cfg
  | Simulated of Sim.cfg

let workload name size =
  let tiny = size = Tiny in
  match name with
  | "serve-count-n8" ->
      Served
        {
          Served.protocol = "count";
          n = 8;
          conns = 2;
          traced_sessions = (if tiny then 16 else 1024);
          selftest_sessions = (if tiny then 200 else 20_000);
        }
  | "serve-sketch-n128" ->
      Served
        {
          Served.protocol = "sketch:7";
          n = (if tiny then 16 else 128);
          (* one connection: two closed-loop clients queue behind each
             other's absorb in the daemon, which makes the latency
             bimodal and its median jump between runs *)
          conns = 1;
          traced_sessions = (if tiny then 4 else 16);
          selftest_sessions = (if tiny then 8 else 32);
        }
  | "sim-forest-1m" ->
      Simulated
        {
          Sim.kind = Sim.Forest;
          n = (if tiny then 10_000 else 1_000_000);
          chunk = 65_536;
          sample = 65_536;
        }
  | "bcc-regular-1m" ->
      Simulated
        {
          Sim.kind = Sim.Bcc_regular;
          n = (if tiny then 10_000 else 1_000_000);
          chunk = 65_536;
          sample = 65_536;
        }
  | other ->
      Printf.eprintf
        "refbench: unknown workload %S (serve-count-n8, serve-sketch-n128, \
         sim-forest-1m, bcc-regular-1m)\n"
        other;
      exit 2

let usage () =
  prerr_endline
    "usage: refbench --workload NAME --seed N --seconds S --trace 0|1 --refnet PATH \
     [--commit SHA] [--size full|tiny] [--out DIR]";
  exit 2

let () =
  let wl = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let refnet = ref "" and commit = ref "unknown" and size = ref Full and out = ref "." in
  let probe = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        wl := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--refnet" :: v :: rest ->
        refnet := v;
        parse rest
    | "--commit" :: v :: rest ->
        commit := v;
        parse rest
    | "--size" :: v :: rest ->
        (match v with "full" -> size := Full | "tiny" -> size := Tiny | _ -> usage ());
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--setup-probe" :: rest ->
        probe := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if !wl = "" || (!refnet = "" && not !probe) then usage ();
  let w = workload !wl !size in
  (match (!probe, w) with
  | true, Simulated cfg ->
      Sim.probe_ready cfg ~seed;
      print_endline "ready";
      exit 0
  | true, Served _ -> usage ()
  | false, _ -> ());
  let transport = match w with Served _ -> "loopback TCP" | Simulated _ -> "in-process" in
  let width =
    match Sys.getenv_opt "REFNET_DOMAINS" with
    | Some v -> Printf.sprintf "REFNET_DOMAINS=%s" v
    | None -> Printf.sprintf "default %d" (Core.Parallel.domain_count ())
  in
  Outcome.say
    "host: {\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"pool_width\": %S, \"transport\": %S}"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit width transport;
  Outcome.say
    "run: {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"size\": %S}" !wl
    seed !seconds
    (if !trace then 1 else 0)
    (match !size with Full -> "full" | Tiny -> "tiny");
  let spans_path =
    Filename.concat !out (Printf.sprintf "spans-%s-seed%d.jsonl" !wl seed)
  in
  let result =
    try
      match w with
      | Served cfg ->
          Served.run cfg ~refnet:!refnet ~seed ~seconds:!seconds ~traced:!trace ~spans_path
      | Simulated cfg ->
          let probe_argv =
            [|
              Sys.executable_name; "--setup-probe"; "--workload"; !wl; "--seed";
              string_of_int seed; "--size"; (match !size with Full -> "full" | Tiny -> "tiny");
            |]
          in
          Sim.run cfg ~refnet:!refnet ~seed ~seconds:!seconds ~traced:!trace ~spans_path
            ~probe_argv
    with Util.Wrong why ->
      Outcome.say "wrong: %s" why;
      Outcome.say "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
      exit 1
  in
  Outcome.print_metrics "end to end (untraced):" result.Outcome.e2e;
  if !trace then Outcome.print_metrics "per layer:" result.Outcome.layers;
  List.iter (fun p -> Outcome.say "problem: %s" p) result.Outcome.problems;
  let correct = result.Outcome.failed = 0 && result.Outcome.problems = [] in
  let shown = if !trace then result.Outcome.layers else result.Outcome.e2e in
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.Outcome.name
             (Util.json_num x.Outcome.value) x.Outcome.unit_)
         shown)
  in
  Outcome.say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (max 1 result.Outcome.attempted) result.Outcome.failed metrics;
  exit (if correct then 0 else 1)
