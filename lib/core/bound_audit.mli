(** Auditing observed message sizes against the paper's asymptotic
    budgets.

    Each flagship protocol comes with a theorem-shaped budget — e.g.
    Theorem 5's degeneracy reconstruction must fit in [O(k²·log n)] bits
    per node, the coalition connectivity protocol in [O(k·log n)] — and
    an audit checks every observed per-run [max_bits] against
    [c_max · shape(n)], where [shape] is the theorem's growth law in
    units of [Bounds.id_bits n] and [c_max] a concrete constant derived
    from the implementation's exact message layout (see DESIGN.md §10).
    Each protocol declares its own budget ({!Protocol.t}'s [budget]) and
    the engine carries it, typed, on every [Referee_done] event; labels
    are display strings and are never parsed.
    The audit also {e fits} the constant: [c_fit] is the largest
    observed [max_bits / shape(n)] over the sweep, so a protocol passes
    when [c_fit <= c_max] and the report shows how much headroom the
    implementation actually has.

    Small sizes are excluded via [n_min]: a budget is an asymptotic
    claim and additive lower-order terms ([+2] flag bits, sketch header
    fields) dominate at tiny [n], which would force meaninglessly large
    constants. *)

(** The growth law in front of the constant, in units of
    [w = Bounds.id_bits n]: *)
type shape =
  | Log_n  (** [w] — forest reconstruction/recognition (§III.A) *)
  | K_log_n of int  (** [k·w] — bounded-degree, coalition (k parts) *)
  | K2_log_n of int  (** [k²·w] — degeneracy reconstruction (Theorem 5) *)
  | Log_sq  (** [w²] — sketch connectivity (fixed field width) *)
  | Linear  (** [n] — the deliberately non-frugal full-information protocol *)

(** [shape_units shape n] is [shape(n)]: the budget at size [n] with
    [c = 1], always ≥ 1. *)
val shape_units : shape -> int -> int

val pp_shape : Format.formatter -> shape -> unit

type budget = {
  b_shape : shape;
  c_max : float;  (** audited bound: observed [max_bits <= c_max * shape(n)] *)
  n_min : int;  (** sizes below this are recorded but not audited *)
}

(** [shape_tag s] is the wire spelling of [s]: a tag ([log_n],
    [k_log_n], [k2_log_n], [log_sq], [linear]) and the shape's [k] (0
    for shapes without one).  {!shape_of_tag} inverts it. *)
val shape_tag : shape -> string * int

val shape_of_tag : string -> int -> shape option

type observation = { o_n : int; o_max_bits : int }

type verdict = {
  v_label : string;
  v_shape : shape;
  v_c_max : float;
  v_c_fit : float;  (** max over audited observations of [max_bits / shape(n)] *)
  v_observations : int;  (** audited observations ([n >= n_min]) *)
  v_skipped : int;  (** observations below [n_min] *)
  v_worst_n : int;  (** the [n] attaining [c_fit] (0 if none audited) *)
  v_passed : bool;  (** true when nothing audited or [c_fit <= c_max] *)
}

(** [audit ~label budget observations] checks a sweep's observations
    against the budget. *)
val audit : label:string -> budget -> observation list -> verdict

val pp_verdict : Format.formatter -> verdict -> unit

(** [verdict_json v] is one canonical JSON object (sorted keys, no
    whitespace) for report export. *)
val verdict_json : verdict -> string
