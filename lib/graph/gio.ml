let to_edge_list g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.order g) (Graph.size g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

(* Fields separated by any run of spaces, tabs or stray carriage
   returns: edge lists written on other platforms (CRLF endings,
   tab-separated columns, trailing blanks) load identically to native
   ones instead of failing mid-file. *)
let fields line =
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let len = String.length line in
  let rec go i acc =
    if i >= len then List.rev acc
    else if is_ws line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < len && not (is_ws line.[!j]) do
        incr j
      done;
      go !j (String.sub line i (!j - i) :: acc)
    end
  in
  go 0 []

(* Diagnostics name the offending line (1-based, blank lines counted)
   the way compilers do, so a bad row in a large file is found without
   bisecting it. *)
let of_edge_list s =
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let fail line msg = invalid_arg (Printf.sprintf "Gio.of_edge_list:%d: %s" line msg) in
  match lines with
  | [] -> invalid_arg "Gio.of_edge_list: empty input"
  | (header_line, _) as header :: rest ->
    let parse_pair (line, text) =
      match fields text with
      | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> (a, b)
        | _ -> fail line "expected two integers")
      | _ -> fail line "expected two fields"
    in
    let n, m = parse_pair header in
    if n < 0 || m < 0 then fail header_line "negative order or size in header";
    let b = Graph.Builder.create n in
    List.iter
      (fun ((line, _) as row) ->
        let u, v = parse_pair row in
        (* re-anchor range and self-loop errors to their row *)
        try Graph.Builder.add_edge b u v with Invalid_argument msg -> fail line msg)
      rest;
    let g = Graph.Builder.build b in
    (* count edges, not lines: a repeated edge line must not make up
       for a missing one *)
    if Graph.size g <> m || List.length rest <> m then
      invalid_arg "Gio.of_edge_list: edge count mismatch";
    g

let to_dot ?(name = "G") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v)) (Graph.vertices g);
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* graph6: N(n) header then the upper triangle read column by column
   ((1,2), (1,3), (2,3), (1,4), ...), packed 6 bits per character with
   offset 63. *)

let graph6_header n =
  if n < 0 then invalid_arg "Gio.to_graph6: negative order";
  if n <= 62 then String.make 1 (Char.chr (n + 63))
  else if n <= 258047 then begin
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr 126);
    Bytes.set b 1 (Char.chr (((n lsr 12) land 63) + 63));
    Bytes.set b 2 (Char.chr (((n lsr 6) land 63) + 63));
    Bytes.set b 3 (Char.chr ((n land 63) + 63));
    Bytes.to_string b
  end
  else invalid_arg "Gio.to_graph6: order too large"

let to_graph6 g =
  let n = Graph.order g in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (graph6_header n);
  let bits = ref 0 and count = ref 0 in
  let flush_partial () =
    if !count > 0 then begin
      Buffer.add_char buf (Char.chr ((!bits lsl (6 - !count)) + 63));
      bits := 0;
      count := 0
    end
  in
  for v = 2 to n do
    for u = 1 to v - 1 do
      bits := (!bits lsl 1) lor (if Graph.has_edge g u v then 1 else 0);
      incr count;
      if !count = 6 then begin
        Buffer.add_char buf (Char.chr (!bits + 63));
        bits := 0;
        count := 0
      end
    done
  done;
  flush_partial ();
  Buffer.contents buf

let of_graph6 s =
  let len = String.length s in
  if len = 0 then invalid_arg "Gio.of_graph6: empty input";
  let byte i =
    if i >= len then invalid_arg "Gio.of_graph6: truncated input";
    let c = Char.code s.[i] - 63 in
    if c < 0 || c > 63 then invalid_arg "Gio.of_graph6: invalid character";
    c
  in
  let n, start =
    if s.[0] = '~' then begin
      if len >= 2 && s.[1] = '~' then invalid_arg "Gio.of_graph6: order too large"
      else (((byte 1 lsl 12) lor (byte 2 lsl 6) lor byte 3), 4)
    end
    else (byte 0, 1)
  in
  let b = Graph.Builder.create n in
  let idx = ref 0 in
  let bit pos = byte (start + (pos / 6)) land (1 lsl (5 - (pos mod 6))) <> 0 in
  for v = 2 to n do
    for u = 1 to v - 1 do
      if bit !idx then Graph.Builder.add_edge b u v;
      incr idx
    done
  done;
  Graph.Builder.build b
