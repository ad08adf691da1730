type t = { n : int; row : int array; col : int array }
(* row.(v-1) .. row.(v) - 1 index the neighbour run of v in col, each
   run strictly increasing.  row has n+1 entries; row.(n) = 2m. *)

let check t v name =
  if v < 1 || v > t.n then invalid_arg ("Csr." ^ name ^ ": vertex out of range")

let order t = t.n
let size t = t.row.(t.n) / 2

let degree t v =
  check t v "degree";
  t.row.(v) - t.row.(v - 1)

let neighbors_slice t v =
  check t v "neighbors_slice";
  let off = t.row.(v - 1) in
  (t.col, off, t.row.(v) - off)

let iter_neighbors t v f =
  check t v "iter_neighbors";
  for i = t.row.(v - 1) to t.row.(v) - 1 do
    f t.col.(i)
  done

let neighbors t v =
  check t v "neighbors";
  List.init (degree t v) (fun i -> t.col.(t.row.(v - 1) + i))

let has_edge t u v =
  check t u "has_edge";
  check t v "has_edge";
  u <> v
  &&
  (* Search the shorter run. *)
  let a, b = if degree t u <= degree t v then (u, v) else (v, u) in
  let lo = ref t.row.(a - 1) and hi = ref t.row.(a) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col.(mid) in
    if c = b then found := true else if c < b then lo := mid + 1 else hi := mid
  done;
  !found

let iter_edges t f =
  for u = 1 to t.n do
    for i = t.row.(u - 1) to t.row.(u) - 1 do
      let v = t.col.(i) in
      if u < v then f u v
    done
  done

let to_graph t =
  let b = Graph.Builder.create t.n in
  iter_edges t (fun u v -> Graph.Builder.add_edge b u v);
  Graph.Builder.build b

(* ---------- construction ---------- *)

let sort_run col lo hi =
  (* In-place insertion sort of col.[lo, hi): runs are one vertex's
     neighbours, already nearly sorted for most producers. *)
  for i = lo + 1 to hi - 1 do
    let x = col.(i) in
    let j = ref (i - 1) in
    while !j >= lo && col.(!j) > x do
      col.(!j + 1) <- col.(!j);
      decr j
    done;
    col.(!j + 1) <- x
  done

(* Sort every run, drop duplicate entries, and compact col / rebuild row
   in place.  Duplicate edges were written twice in *both* endpoint
   runs, so dropping repeats keeps the structure symmetric. *)
let dedupe n row col =
  let write = ref 0 in
  let run_start = ref 0 in
  for v = 1 to n do
    let lo = !run_start and hi = row.(v) in
    run_start := hi;
    sort_run col lo hi;
    let new_lo = !write in
    for i = lo to hi - 1 do
      if i = lo || col.(i) <> col.(i - 1) then begin
        col.(!write) <- col.(i);
        incr write
      end
    done;
    row.(v - 1) <- new_lo
  done;
  let total = !write in
  let starts = Array.make (n + 1) 0 in
  Array.blit row 0 starts 0 n;
  starts.(n) <- total;
  let col = if total = Array.length col then col else Array.sub col 0 total in
  { n; row = starts; col }

(* Two-pass construction: degrees are counted, then endpoints filled
   in a replay of the same pairs.  Private to [of_edges]. *)
module Builder = struct
  type csr = t

  type t = {
    n : int;
    row : int array; (* counting pass: degrees; after freeze: write cursors *)
    ends : int array; (* after freeze: run end offsets *)
    mutable col : int array;
    mutable frozen : bool;
  }

  let create n =
    if n < 0 then invalid_arg "Csr.Builder.create: negative order";
    { n; row = Array.make (n + 1) 0; ends = Array.make (n + 1) 0; col = [||]; frozen = false }

  let check_pair b u v name =
    if u < 1 || u > b.n || v < 1 || v > b.n then
      invalid_arg ("Csr.Builder." ^ name ^ ": vertex out of range");
    if u = v then invalid_arg ("Csr.Builder." ^ name ^ ": self-loop")

  let count b u v =
    if b.frozen then invalid_arg "Csr.Builder.count: already frozen";
    check_pair b u v "count";
    b.row.(u - 1) <- b.row.(u - 1) + 1;
    b.row.(v - 1) <- b.row.(v - 1) + 1

  let freeze b =
    if b.frozen then invalid_arg "Csr.Builder.freeze: already frozen";
    b.frozen <- true;
    let acc = ref 0 in
    for v = 1 to b.n do
      let d = b.row.(v - 1) in
      b.row.(v - 1) <- !acc;
      acc := !acc + d;
      b.ends.(v - 1) <- !acc
    done;
    b.row.(b.n) <- !acc;
    b.ends.(b.n) <- !acc;
    b.col <- Array.make !acc 0

  let fill_one b u v =
    let cur = b.row.(u - 1) in
    if cur >= b.ends.(u - 1) then
      invalid_arg "Csr.Builder.fill: more edges than counted at a vertex";
    b.col.(cur) <- v;
    b.row.(u - 1) <- cur + 1

  let fill b u v =
    if not b.frozen then invalid_arg "Csr.Builder.fill: freeze first";
    check_pair b u v "fill";
    fill_one b u v;
    fill_one b v u

  let finish b : csr =
    if not b.frozen then invalid_arg "Csr.Builder.finish: freeze first";
    for v = 1 to b.n do
      if b.row.(v - 1) <> b.ends.(v - 1) then
        invalid_arg "Csr.Builder.finish: fill pass saw fewer edges than the counting pass"
    done;
    (* row currently holds cursors = run ends; rebuild starts from ends. *)
    let row = Array.make (b.n + 1) 0 in
    for v = 1 to b.n do
      row.(v) <- b.ends.(v - 1)
    done;
    dedupe b.n row b.col
end

let of_edges n edges =
  let b = Builder.create n in
  List.iter (fun (u, v) -> Builder.count b u v) edges;
  Builder.freeze b;
  List.iter (fun (u, v) -> Builder.fill b u v) edges;
  Builder.finish b

let of_graph g =
  let n = Graph.order g in
  let row = Array.make (n + 1) 0 in
  for v = 1 to n do
    row.(v) <- row.(v - 1) + Graph.degree g v
  done;
  let col = Array.make row.(n) 0 in
  let cursor = ref 0 in
  for v = 1 to n do
    Graph.iter_neighbors g v (fun u ->
        col.(!cursor) <- u;
        incr cursor)
  done;
  { n; row; col }
