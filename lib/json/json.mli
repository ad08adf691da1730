(** The one JSON reader and string escaper.  Everything refnet writes
    as JSON and reads back — trace lines (Report), the flight recorder's
    re-rendered lines, lint reports and baselines, perfbench result
    lines and [BENCHMARK.json] — goes through {!parse}; every JSON
    string literal the programs print goes through {!string}.

    The printers stay with their callers: each writes a format tests
    freeze (separators, float digits), so there is no [to_string]. *)

(** A JSON value.  Numbers with a fraction or an exponent are [Float],
    all others [Int], so a reader can tell a count from a measurement. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Raised by {!parse}: what is wrong, and at which column. *)
exception Error of string

(** [parse s] is the fields of the one JSON object that makes up [s],
    in order.  Whitespace (newlines included) may surround any token,
    so a one-line trace event and a whole pretty-printed file both
    parse.  Strings accept every escape of RFC 8259; [\uXXXX] (and a
    surrogate pair) is decoded to UTF-8.
    @raise Error with the 1-based column on anything else: a value
    that is not an object, a truncated document, an integer beyond
    [int], trailing bytes. *)
val parse : string -> (string * t) list

(** [string s] is [s] as a quoted JSON string literal: the double
    quote, the backslash and newline get their short escapes, the other
    bytes below 0x20 a [\u00XX] escape; every other byte, UTF-8
    included, is copied.  {!parse} reads it back to [s] for any byte
    string [s]. *)
val string : string -> string
