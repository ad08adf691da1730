(** Baseline reports for [--deep --baseline FILE]: load a committed
    schema-v2 JSON report and diff a fresh run against it, so the gate
    fails only on findings not present in the baseline.

    Keys are [(rule, file, message)] as a multiset — line-insensitive,
    so edits that merely shift a known finding do not trip CI, while a
    genuinely new occurrence (or a second copy of a known one) does. *)

(** Extract the baseline multiset from a report document. *)
val of_report : string -> ((string * string * string) list, string) result

(** Read and extract from a file; [Error] on unreadable or malformed. *)
val load : string -> ((string * string * string) list, string) result

(** The findings not accounted for by the baseline. *)
val diff : baseline:(string * string * string) list -> Finding.t list -> Finding.t list
