type family =
  | Path of int
  | Cycle of int
  | Complete of int
  | Star of int
  | Grid of int * int
  | Hypercube of int
  | Regular of { n : int; d : int; seed : int }
  | Degenerate of { n : int; k : int; seed : int }

let degenerate_window = 16

(* Stateless splitmix-style mixer: adjacency of the random families is a
   pure function of (parameters, vertex), so any domain can answer any
   query with no shared generator state. *)
let mix64 x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x1B03738712FAD5C9 in
  x lxor (x lsr 31)

type t = {
  fam : family;
  n : int;
  reg_offsets : int array; (* Regular: sorted half-offsets; [||] otherwise *)
  reg_half : bool; (* Regular with odd degree: include the antipodal offset *)
}

let order t = t.n

(* ---------- Regular: seed-deterministic circulant offsets ---------- *)

let regular_offsets ~n ~d ~seed =
  let hmax = (n - 1) / 2 in
  let pairs = d / 2 in
  if pairs > hmax then
    invalid_arg "Implicit.make: regular degree too large for the circulant construction";
  let chosen = Array.make pairs 0 in
  let mem o upto =
    let rec go i = i < upto && (chosen.(i) = o || go (i + 1)) in
    go 0
  in
  let state = ref (mix64 (seed lxor 0x52656775)) in
  let next () =
    state := mix64 (!state + 0x632BE59B);
    !state land max_int
  in
  for i = 0 to pairs - 1 do
    let attempts = ref 0 in
    let pick = ref 0 in
    while
      !pick = 0
      &&
      (incr attempts;
       !attempts <= 128)
    do
      let o = 1 + (next () mod hmax) in
      if not (mem o i) then pick := o
    done;
    if !pick = 0 then begin
      (* Deterministic fallback: the smallest unused offset. *)
      let o = ref 1 in
      while mem !o i do
        incr o
      done;
      pick := !o
    end;
    chosen.(i) <- !pick
  done;
  Array.sort compare chosen;
  chosen

let make fam =
  let plain n name = if n < 0 then invalid_arg ("Implicit.make: negative order (" ^ name ^ ")") in
  match fam with
  | Path n ->
    plain n "path";
    { fam; n; reg_offsets = [||]; reg_half = false }
  | Cycle n ->
    if n < 3 then invalid_arg "Implicit.make: cycle requires n >= 3";
    { fam; n; reg_offsets = [||]; reg_half = false }
  | Complete n ->
    plain n "complete";
    { fam; n; reg_offsets = [||]; reg_half = false }
  | Star n ->
    plain n "star";
    { fam; n; reg_offsets = [||]; reg_half = false }
  | Grid (w, h) ->
    if w < 1 || h < 1 then invalid_arg "Implicit.make: grid sides must be positive";
    { fam; n = w * h; reg_offsets = [||]; reg_half = false }
  | Hypercube d ->
    if d < 0 || d > 30 then invalid_arg "Implicit.make: hypercube dimension out of range";
    { fam; n = 1 lsl d; reg_offsets = [||]; reg_half = false }
  | Regular { n; d; seed } ->
    if n < 1 then invalid_arg "Implicit.make: regular requires n >= 1";
    if d < 0 || d >= n then invalid_arg "Implicit.make: regular requires 0 <= d < n";
    if n * d mod 2 = 1 then invalid_arg "Implicit.make: regular requires n*d even";
    let reg_half = d mod 2 = 1 in
    { fam; n; reg_offsets = regular_offsets ~n ~d ~seed; reg_half }
  | Degenerate { n; k; seed = _ } ->
    if n < 0 then invalid_arg "Implicit.make: negative order (degenerate)";
    if k < 1 || k > degenerate_window then
      invalid_arg
        (Printf.sprintf "Implicit.make: degenerate requires 1 <= k <= %d" degenerate_window);
    { fam; n; reg_offsets = [||]; reg_half = false }

(* ---------- Degenerate: windowed planted back-neighbours ---------- *)

(* Back-offsets of vertex [v]: [min k (v-1)] distinct values in
   [1..min window (v-1)], chosen by a partial Fisher-Yates shuffle keyed
   on [(seed, v)].  Returned sorted increasing.  O(window) time and one
   small scratch array per call. *)
let back_offsets ~k ~seed v =
  let w = min degenerate_window (v - 1) in
  let kk = min k (v - 1) in
  let arr = Array.init w (fun i -> i + 1) in
  if kk < w then begin
    let state = ref (mix64 (seed lxor (v * 0x2E1B2138))) in
    let next () =
      state := mix64 (!state + 0x1D872B41);
      !state land max_int
    in
    for i = 0 to kk - 1 do
      let j = i + (next () mod (w - i)) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
  end;
  let out = Array.sub arr 0 kk in
  Array.sort compare out;
  out

let back_picks ~k ~seed u o =
  (* Does vertex [u] pick back-offset [o]?  (Forward adjacency probe.) *)
  let offs = back_offsets ~k ~seed u in
  let rec go i = i < Array.length offs && (offs.(i) = o || go (i + 1)) in
  go 0

(* ---------- per-family neighbourhoods, increasing order ---------- *)

let check t v name =
  if v < 1 || v > t.n then invalid_arg ("Implicit." ^ name ^ ": vertex out of range")

(* The circulant neighbours [v +- o] (and the antipode), increasing: one
   array, sorted by insertion — the degree is small, and the engines ask
   for one vertex's row per node and round.  The offsets lie in
   [1 .. (n - 1) / 2] and the antipode above it, so the entries are
   distinct. *)
let regular_neighbors t v =
  let n = t.n and offs = t.reg_offsets in
  let pairs = Array.length offs in
  let out = Array.make ((2 * pairs) + if t.reg_half then 1 else 0) 0 in
  let v0 = v - 1 in
  for k = 0 to pairs - 1 do
    out.(2 * k) <- 1 + ((v0 - offs.(k) + n) mod n);
    out.((2 * k) + 1) <- 1 + ((v0 + offs.(k)) mod n)
  done;
  if t.reg_half then out.(2 * pairs) <- 1 + ((v0 + (n / 2)) mod n);
  for i = 1 to Array.length out - 1 do
    let x = out.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && out.(!j) > x do
      out.(!j + 1) <- out.(!j);
      decr j
    done;
    out.(!j + 1) <- x
  done;
  out

let iter_neighbors t v f =
  check t v "iter_neighbors";
  let n = t.n in
  match t.fam with
  | Path _ ->
    if v > 1 then f (v - 1);
    if v < n then f (v + 1)
  | Cycle _ ->
    if v = 1 then begin
      f 2;
      f n
    end
    else if v = n then begin
      f 1;
      f (n - 1)
    end
    else begin
      f (v - 1);
      f (v + 1)
    end
  | Complete _ ->
    for u = 1 to n do
      if u <> v then f u
    done
  | Star _ ->
    if v = 1 then
      for u = 2 to n do
        f u
      done
    else f 1
  | Grid (w, _) ->
    let x = (v - 1) mod w and y = (v - 1) / w in
    let h = t.n / w in
    if y > 0 then f (v - w);
    if x > 0 then f (v - 1);
    if x < w - 1 then f (v + 1);
    if y < h - 1 then f (v + w)
  | Hypercube d ->
    let v0 = v - 1 in
    for b = d - 1 downto 0 do
      if v0 land (1 lsl b) <> 0 then f (v0 - (1 lsl b) + 1)
    done;
    for b = 0 to d - 1 do
      if v0 land (1 lsl b) = 0 then f (v0 + (1 lsl b) + 1)
    done
  | Regular _ -> Array.iter f (regular_neighbors t v)
  | Degenerate { k; seed; _ } ->
    let back = back_offsets ~k ~seed v in
    for i = Array.length back - 1 downto 0 do
      f (v - back.(i))
    done;
    let fwd_max = min degenerate_window (n - v) in
    for o = 1 to fwd_max do
      if back_picks ~k ~seed (v + o) o then f (v + o)
    done

let degree t v =
  check t v "degree";
  let n = t.n in
  match t.fam with
  | Path _ -> (if v > 1 then 1 else 0) + if v < n then 1 else 0
  | Cycle _ -> 2
  | Complete _ -> n - 1
  | Star _ -> if v = 1 then n - 1 else 1
  | Grid (w, _) ->
    let x = (v - 1) mod w and y = (v - 1) / w in
    let h = n / w in
    (if y > 0 then 1 else 0)
    + (if x > 0 then 1 else 0)
    + (if x < w - 1 then 1 else 0)
    + if y < h - 1 then 1 else 0
  | Hypercube d -> d
  | Regular { d; _ } -> d
  | Degenerate { k; seed; _ } ->
    let back = min k (v - 1) in
    let fwd = ref 0 in
    let fwd_max = min degenerate_window (n - v) in
    for o = 1 to fwd_max do
      if back_picks ~k ~seed (v + o) o then incr fwd
    done;
    back + !fwd

let size t =
  let n = t.n in
  match t.fam with
  | Path _ -> max 0 (n - 1)
  | Cycle _ -> n
  | Complete _ -> n * (n - 1) / 2
  | Star _ -> max 0 (n - 1)
  | Grid (w, _) ->
    let h = n / w in
    (h * (w - 1)) + (w * (h - 1))
  | Hypercube d -> d * (n / 2)
  | Regular { d; _ } -> n * d / 2
  | Degenerate { k; _ } ->
    if n <= k + 1 then n * (n - 1) / 2 else (k * (k + 1) / 2) + (k * (n - k - 1))

let fold_neighbors t v init f =
  let acc = ref init in
  iter_neighbors t v (fun u -> acc := f !acc u);
  !acc

let neighbors_array t v =
  match t.fam with
  | Regular _ ->
    check t v "neighbors_array";
    regular_neighbors t v
  | _ ->
    let out = Array.make (degree t v) 0 in
    let idx = ref 0 in
    iter_neighbors t v (fun u ->
        out.(!idx) <- u;
        incr idx);
    out

let neighbors t v = Array.to_list (neighbors_array t v)

let has_edge t u v =
  check t u "has_edge";
  check t v "has_edge";
  u <> v && fold_neighbors t u false (fun acc w -> acc || w = v)

let materialize t =
  let b = Graph.Builder.create t.n in
  for v = 1 to t.n do
    iter_neighbors t v (fun u -> if v < u then Graph.Builder.add_edge b v u)
  done;
  Graph.Builder.build b

(* ---------- naming and parsing ---------- *)

let label t =
  "implicit:"
  ^
  match t.fam with
  | Path _ -> "path"
  | Cycle _ -> "cycle"
  | Complete _ -> "complete"
  | Star _ -> "star"
  | Grid _ -> "grid"
  | Hypercube _ -> "hypercube"
  | Regular _ -> "regular"
  | Degenerate _ -> "degenerate"

let describe t =
  "implicit:"
  ^
  match t.fam with
  | Path n -> Printf.sprintf "path:%d" n
  | Cycle n -> Printf.sprintf "cycle:%d" n
  | Complete n -> Printf.sprintf "complete:%d" n
  | Star n -> Printf.sprintf "star:%d" n
  | Grid (w, h) -> Printf.sprintf "grid:%dx%d" w h
  | Hypercube d -> Printf.sprintf "hypercube:%d" d
  | Regular { n; d; seed } -> Printf.sprintf "regular:%d:%d:%d" n d seed
  | Degenerate { n; k; seed } -> Printf.sprintf "degenerate:%d:%d:%d" n k seed

let bad spec = invalid_arg (Printf.sprintf "Implicit.parse: bad spec %S" spec)

let int_field spec s = match int_of_string_opt s with Some v -> v | None -> bad spec

let strip_prefix spec =
  match String.index_opt spec ':' with
  | Some i when String.sub spec 0 i = "implicit" ->
    String.sub spec (i + 1) (String.length spec - i - 1)
  | _ -> spec

let grid_sides spec s =
  match String.index_opt s 'x' with
  | Some i ->
    (int_field spec (String.sub s 0 i), int_field spec (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> bad spec

let parse spec =
  let body = strip_prefix spec in
  let fields = String.split_on_char ':' body in
  let fam =
    match fields with
    | [ "path"; n ] -> Path (int_field spec n)
    | [ "cycle"; n ] -> Cycle (int_field spec n)
    | [ "complete"; n ] -> Complete (int_field spec n)
    | [ "star"; n ] -> Star (int_field spec n)
    | [ "grid"; wh ] ->
      let w, h = grid_sides spec wh in
      Grid (w, h)
    | [ "hypercube"; d ] -> Hypercube (int_field spec d)
    | [ "regular"; n; d ] -> Regular { n = int_field spec n; d = int_field spec d; seed = 1 }
    | [ "regular"; n; d; seed ] ->
      Regular { n = int_field spec n; d = int_field spec d; seed = int_field spec seed }
    | [ "degenerate"; n; k ] -> Degenerate { n = int_field spec n; k = int_field spec k; seed = 1 }
    | [ "degenerate"; n; k; seed ] ->
      Degenerate { n = int_field spec n; k = int_field spec k; seed = int_field spec seed }
    | _ -> bad spec
  in
  make fam

let isqrt n =
  let r = ref 0 in
  while (!r + 1) * (!r + 1) <= n do
    incr r
  done;
  !r

let floor_log2 n =
  let r = ref 0 in
  while 1 lsl (!r + 1) <= n do
    incr r
  done;
  !r

let parse_family spec n =
  let body = strip_prefix spec in
  let fields = String.split_on_char ':' body in
  let fam =
    match fields with
    | [ "path" ] -> Path n
    | [ "cycle" ] -> Cycle n
    | [ "complete" ] -> Complete n
    | [ "star" ] -> Star n
    | [ "grid" ] ->
      (* Near-square factorization: the largest divisor <= sqrt n. *)
      let w = ref (max 1 (isqrt n)) in
      while n mod !w <> 0 do
        decr w
      done;
      Grid (!w, n / !w)
    | [ "hypercube" ] -> Hypercube (if n < 1 then 0 else floor_log2 n)
    | "regular" :: rest ->
      let d, seed =
        match rest with
        | [ d ] -> (int_field spec d, 1)
        | [ d; seed ] -> (int_field spec d, int_field spec seed)
        | _ -> bad spec
      in
      (* A sweep hits sizes below d+1 too: clamp, then keep n*d even.
         After clamping d <= n-1, so when n is odd (n-1 even) the bump
         stays in range. *)
      let d = min d (max 0 (n - 1)) in
      let d = if n mod 2 = 1 && d mod 2 = 1 then d + 1 else d in
      Regular { n; d; seed }
    | "degenerate" :: rest ->
      let k, seed =
        match rest with
        | [ k ] -> (int_field spec k, 1)
        | [ k; seed ] -> (int_field spec k, int_field spec seed)
        | _ -> bad spec
      in
      Degenerate { n; k; seed }
    | _ -> bad spec
  in
  make fam
