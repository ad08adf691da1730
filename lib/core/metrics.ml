(* Zero-dependency metrics: one hashtable of named metrics per registry.
   Everything here is plain mutable state touched from the submitting
   domain only (Parallel folds per-domain times in after each join), so
   there is no locking; determinism of a snapshot reduces to determinism
   of the instrumented run plus the injected clock. *)

open Refnet_json

let domain_slots = 64 (* matches Parallel.width_cap *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array; (* 64 log2 buckets covers every OCaml int *)
}

type timer = {
  mutable t_count : int;
  mutable t_total : float;
  t_domains : float array;
}

type item = C of counter | G of gauge | H of histogram | T of timer

type t = { clock : unit -> float; items : (string, item) Hashtbl.t }

let create ?(clock = Unix.gettimeofday) () = { clock; items = Hashtbl.create 32 }
let now t = t.clock ()

let escape_label_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let series base labels =
  match labels with
  | [] -> base
  | _ ->
    let b = Buffer.create 32 in
    Buffer.add_string b base;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label_value v);
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}';
    Buffer.contents b

let saturating_add a b = if a > max_int - b then max_int else a + b

module Counter = struct
  type nonrec counter = counter

  let counter t name =
    match Hashtbl.find_opt t.items name with
    | Some (C c) -> c
    | Some _ -> invalid_arg ("Metrics.Counter.counter: " ^ name ^ " is not a counter")
    | None ->
      let c = { c_value = 0 } in
      Hashtbl.add t.items name (C c);
      c

  let add c k =
    if k < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    c.c_value <- saturating_add c.c_value k

  let incr c = add c 1
  let value c = c.c_value
end

module Gauge = struct
  type nonrec gauge = gauge

  let gauge t name =
    match Hashtbl.find_opt t.items name with
    | Some (G g) -> g
    | Some _ -> invalid_arg ("Metrics.Gauge.gauge: " ^ name ^ " is not a gauge")
    | None ->
      let g = { g_value = 0. } in
      Hashtbl.add t.items name (G g);
      g

  let set g v = g.g_value <- v
  let value g = g.g_value
end

module Histogram = struct
  type nonrec histogram = histogram

  let histogram t name =
    match Hashtbl.find_opt t.items name with
    | Some (H h) -> h
    | Some _ -> invalid_arg ("Metrics.Histogram.histogram: " ^ name ^ " is not a histogram")
    | None ->
      let h = { h_count = 0; h_sum = 0; h_max = 0; h_buckets = Array.make 64 0 } in
      Hashtbl.add t.items name (H h);
      h

  (* bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1]: the index is
     the bit width of the value. *)
  let bucket_index v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v

  let bucket_range i =
    if i <= 0 then (0, 0)
    else if i >= 63 then (1 lsl 62, max_int)
    else ((1 lsl (i - 1)), (1 lsl i) - 1)

  let observe h v =
    if v < 0 then invalid_arg "Metrics.Histogram.observe: negative value";
    h.h_count <- saturating_add h.h_count 1;
    h.h_sum <- saturating_add h.h_sum v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_index v in
    h.h_buckets.(i) <- saturating_add h.h_buckets.(i) 1

  let count h = h.h_count
  let sum h = h.h_sum
  let max_value h = h.h_max

  let buckets h =
    let out = ref [] in
    for i = Array.length h.h_buckets - 1 downto 0 do
      if h.h_buckets.(i) > 0 then out := (i, h.h_buckets.(i)) :: !out
    done;
    !out

  (* The reported quantile is the upper bound of the first bucket whose
     cumulative count reaches ceil(q·count), clamped to the observed
     max — exact at the log2 resolution the buckets keep. *)
  let quantile_of ~count ~max_value bucket_list q =
    if count = 0 then 0
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let target = int_of_float (ceil (q *. float_of_int count)) in
      let target = if target < 1 then 1 else target in
      let rec go cum = function
        | [] -> max_value
        | (i, c) :: rest ->
          let cum = cum + c in
          if cum >= target then
            let _, hi = bucket_range i in
            min hi max_value
          else go cum rest
      in
      go 0 bucket_list
    end

  let quantile h q = quantile_of ~count:h.h_count ~max_value:h.h_max (buckets h) q
end

module Timer = struct
  type nonrec timer = timer

  let timer t name =
    match Hashtbl.find_opt t.items name with
    | Some (T tm) -> tm
    | Some _ -> invalid_arg ("Metrics.Timer.timer: " ^ name ^ " is not a timer")
    | None ->
      let tm = { t_count = 0; t_total = 0.; t_domains = Array.make domain_slots 0. } in
      Hashtbl.add t.items name (T tm);
      tm

  let add tm ?(domain = 0) seconds =
    let seconds = if seconds > 0. then seconds else 0. in
    let slot = if domain < 0 then 0 else if domain >= domain_slots then domain_slots - 1 else domain in
    tm.t_total <- tm.t_total +. seconds;
    tm.t_domains.(slot) <- tm.t_domains.(slot) +. seconds

  let count tm = tm.t_count
  let total tm = tm.t_total

  let by_domain tm =
    let out = ref [] in
    for i = domain_slots - 1 downto 0 do
      if tm.t_domains.(i) <> 0. then out := (i, tm.t_domains.(i)) :: !out
    done;
    !out
end

type span = { sp_timer : timer; sp_clock : unit -> float; sp_t0 : float }

let start_span t name =
  let tm = Timer.timer t name in
  { sp_timer = tm; sp_clock = t.clock; sp_t0 = t.clock () }

let stop_span _t ?domain sp =
  Timer.add sp.sp_timer ?domain (sp.sp_clock () -. sp.sp_t0);
  sp.sp_timer.t_count <- saturating_add sp.sp_timer.t_count 1

let time t name f =
  let sp = start_span t name in
  Fun.protect ~finally:(fun () -> stop_span t sp) f

let allocated_words f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* ---------- snapshots ---------- *)

type histogram_snapshot = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type timer_snapshot = { t_count : int; t_total : float; t_by_domain : (int * float) list }

let snapshot_quantile (h : histogram_snapshot) q =
  Histogram.quantile_of ~count:h.h_count ~max_value:h.h_max h.h_buckets q

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
  timers : (string * timer_snapshot) list;
}

let snapshot t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] and timers = ref [] in
  Hashtbl.iter
    (fun name item ->
      match item with
      | C c -> counters := (name, c.c_value) :: !counters
      | G g -> gauges := (name, g.g_value) :: !gauges
      | H h ->
        histograms :=
          ( name,
            { h_count = h.h_count; h_sum = h.h_sum; h_max = h.h_max; h_buckets = Histogram.buckets h }
          )
          :: !histograms
      | T tm ->
        timers :=
          (name, { t_count = tm.t_count; t_total = tm.t_total; t_by_domain = Timer.by_domain tm })
          :: !timers)
    t.items;
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  {
    counters = by_name !counters;
    gauges = by_name !gauges;
    histograms = by_name !histograms;
    timers = by_name !timers;
  }

(* ---------- JSON export ---------- *)

let json_float f =
  (* %.9g never prints a partial float as an integer-looking "nan". *)
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let to_json s =
  let b = Buffer.create 1024 in
  let obj add_entry entries =
    Buffer.add_char b '{';
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        add_entry e)
      entries;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"counters\":";
  obj
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s:%d" (Json.string name) v))
    s.counters;
  Buffer.add_string b ",\"gauges\":";
  obj
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s:%s" (Json.string name) (json_float v)))
    s.gauges;
  Buffer.add_string b ",\"histograms\":";
  obj
    (fun (name, h) ->
      Buffer.add_string b (Json.string name);
      Buffer.add_string b
        (Printf.sprintf ":{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"buckets\":{"
           h.h_count h.h_sum h.h_max (snapshot_quantile h 0.5) (snapshot_quantile h 0.9)
           (snapshot_quantile h 0.99));
      List.iteri
        (fun i (idx, c) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%d\":%d" idx c))
        h.h_buckets;
      Buffer.add_string b "}}")
    s.histograms;
  Buffer.add_string b ",\"timers\":";
  obj
    (fun (name, tm) ->
      Buffer.add_string b (Json.string name);
      Buffer.add_string b
        (Printf.sprintf ":{\"count\":%d,\"total_seconds\":%s,\"by_domain\":{" tm.t_count
           (json_float tm.t_total));
      List.iteri
        (fun i (slot, sec) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%d\":%s" slot (json_float sec)))
        tm.t_by_domain;
      Buffer.add_string b "}}")
    s.timers;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------- Prometheus text exposition ---------- *)

(* Series names may carry a label set: [base{k="v"}].  Split it back so
   histogram buckets can merge their [le] label in. *)
let split_series name =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i ->
    let base = String.sub name 0 i in
    let rest = String.sub name (i + 1) (String.length name - i - 2) in
    (base, rest)

let sanitize_base base =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    base

let label_set labels extra =
  match (labels, extra) with
  | "", "" -> ""
  | "", e -> "{" ^ e ^ "}"
  | l, "" -> "{" ^ l ^ "}"
  | l, e -> "{" ^ l ^ "," ^ e ^ "}"

let to_prometheus s =
  let b = Buffer.create 2048 in
  let seen_types = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem seen_types base) then begin
      Hashtbl.add seen_types base ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun (name, v) ->
      let base, labels = split_series name in
      let base = sanitize_base base in
      type_line base "counter";
      Buffer.add_string b (Printf.sprintf "%s%s %d\n" base (label_set labels "") v))
    s.counters;
  List.iter
    (fun (name, v) ->
      let base, labels = split_series name in
      let base = sanitize_base base in
      type_line base "gauge";
      Buffer.add_string b (Printf.sprintf "%s%s %s\n" base (label_set labels "") (json_float v)))
    s.gauges;
  List.iter
    (fun (name, h) ->
      let base, labels = split_series name in
      let base = sanitize_base base in
      type_line base "histogram";
      let top = List.fold_left (fun acc (i, _) -> max acc i) 0 h.h_buckets in
      let cum = ref 0 in
      for i = 0 to top do
        (match List.assoc_opt i h.h_buckets with Some c -> cum := !cum + c | None -> ());
        let _, hi = Histogram.bucket_range i in
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" base (label_set labels (Printf.sprintf "le=\"%d\"" hi)) !cum)
      done;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" base (label_set labels "le=\"+Inf\"") h.h_count);
      Buffer.add_string b (Printf.sprintf "%s_sum%s %d\n" base (label_set labels "") h.h_sum);
      Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" base (label_set labels "") h.h_count);
      (* summary-convention quantile lines alongside the histogram *)
      List.iter
        (fun (tag, q) ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" base
               (label_set labels (Printf.sprintf "quantile=\"%s\"" tag))
               (snapshot_quantile h q)))
        [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ])
    s.histograms;
  List.iter
    (fun (name, tm) ->
      let base, labels = split_series name in
      let base = sanitize_base base in
      type_line (base ^ "_seconds_total") "counter";
      Buffer.add_string b
        (Printf.sprintf "%s_seconds_total%s %s\n" base (label_set labels "") (json_float tm.t_total));
      List.iter
        (fun (slot, sec) ->
          Buffer.add_string b
            (Printf.sprintf "%s_seconds_total%s %s\n" base
               (label_set labels (Printf.sprintf "domain=\"%d\"" slot))
               (json_float sec)))
        tm.t_by_domain;
      type_line (base ^ "_spans_total") "counter";
      Buffer.add_string b
        (Printf.sprintf "%s_spans_total%s %d\n" base (label_set labels "") tm.t_count))
    s.timers;
  Buffer.contents b

let write_file m path =
  let snap = snapshot m in
  let data =
    if Filename.check_suffix path ".prom" then to_prometheus snap else to_json snap ^ "\n"
  in
  (* close, not the wrapper's close_noerr, so a failed flush raises *)
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc data;
      Out_channel.close oc)
