(* A recursive-descent reader for the JSON refnet writes and reads back
   (trace lines, flight re-renderings, lint reports, perfbench rows and
   BENCHMARK.json), plus the one string escaper.  Hand-rolled so the
   analysis pipeline stays dependency-free. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at column %d" msg (!pos + 1))) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let skip_ws () =
    while !pos < n && String.contains " \t\r\n" s.[!pos] do
      advance ()
    done
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit i =
      match s.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let code = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
    pos := !pos + 4;
    code
  in
  (* After "\u": one code point, a surrogate pair taking a second \u. *)
  let code_point () =
    let hi = hex4 () in
    if hi land 0xFC00 = 0xDC00 then fail "lone low surrogate"
    else if hi land 0xFC00 <> 0xD800 then hi
    else begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        fail "lone high surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "lone high surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        let short c = Buffer.add_char b c; advance () in
        (match peek () with
        | Some ('"' | '\\' | '/' as c) -> short c
        | Some 'n' -> short '\n'
        | Some 't' -> short '\t'
        | Some 'r' -> short '\r'
        | Some 'b' -> short '\b'
        | Some 'f' -> short '\012'
        | Some 'u' -> advance (); Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let float = ref false in
    if peek () = Some '-' then advance ();
    while
      match peek () with
      | Some ('0' .. '9') -> true
      | Some ('.' | 'e' | 'E' | '+' | '-') -> float := true; true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    let lit = String.sub s start (!pos - start) in
    if !float then
      match float_of_string_opt lit with Some v -> Float v | None -> fail "bad number"
    else match int_of_string_opt lit with Some v -> Int v | None -> fail "number out of range"
  in
  let rec parse_value () =
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' -> Obj (parse_object ())
    | Some '[' -> Arr (parse_array ())
    | Some ('n' | 't' | 'f') ->
      let word w = !pos + String.length w <= n && String.sub s !pos (String.length w) = w in
      let take w v = pos := !pos + String.length w; v in
      if word "null" then take "null" Null
      else if word "true" then take "true" (Bool true)
      else if word "false" then take "false" (Bool false)
      else fail "expected a value"
    | _ -> parse_number ()
  and parse_object () =
    expect '{';
    let fields = ref [] in
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        fields := (key, parse_value ()) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
    end;
    List.rev !fields
  and parse_array () =
    expect '[';
    let items = ref [] in
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let rec elements () =
        skip_ws ();
        items := parse_value () :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elements ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      elements ()
    end;
    List.rev !items
  in
  skip_ws ();
  let fields = parse_object () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  fields

let string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
