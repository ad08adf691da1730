(** Whole-repo, Parsetree-level call graph for the deep lint passes.

    [build] walks each pre-parsed source once and produces one {!def}
    per let-bound function (top-level, module-nested, or nested
    [let f x = ...] — nested defs get a dotted path like ["run.pump_out"]
    and an implicit parent edge recording the handler context at the
    binding point).  Facts per def: raise sites and call/reference
    sites, each tagged with the exception keys caught by enclosing
    handlers, plus [Unix.*] syscall sites.

    Every [Pexp_ident] is a call edge — a function passed as a value
    counts as called, the sound over-approximation for reachability.

    Referee roots are the [~init]/[~absorb]/[~finish] arguments of
    [*.streaming] and [*.guarded] applications, the [r_init]/[r_absorb]/[r_broadcast]/
    [r_finish] fields of round-stream records, and record literals
    carrying at least two of [init]/[absorb]/[finish].  A fun-literal
    root becomes its own def with no parent edge (it runs when the
    referee is fed, not when the record is built).

    Known approximations are catalogued in DESIGN.md §16. *)

type raise_site = {
  rs_exn : string;
      (** last longident component; ["?"] for a re-raised variable,
          removed only by a catch-all handler *)
  rs_line : int;
  rs_col : int;
  rs_caught : string list;  (** keys absorbed by enclosing handlers *)
  rs_catch_all : bool;
}

type call_site = {
  cs_path : string list;  (** the longident as written *)
  cs_line : int;
  cs_col : int;
  cs_caught : string list;
  cs_catch_all : bool;
  mutable cs_resolved : string option;  (** def id, filled at build time *)
}

type unix_site = { us_fn : string; us_line : int; us_col : int }

type def = {
  d_id : string;  (** ["file::dotted.path"], unique *)
  d_file : string;
  d_path : string list;
  d_line : int;
  d_col : int;
  d_body : Parsetree.expression;  (** the binding's right-hand side *)
  mutable d_raises : raise_site list;
  mutable d_calls : call_site list;
  mutable d_unix : unix_site list;
}

type root = {
  r_display : string;  (** e.g. ["Forest_protocol.reconstruct#absorb"] *)
  r_file : string;
  r_line : int;
  r_col : int;
  mutable r_def : string option;
      (** the root body's def id; [None] when the referee field held a
          reference the resolver could not place (documented skip) *)
  r_ref : string list;
}

type t

(** [build sources] constructs and resolves the graph over
    [(normalized-file, parsed-ast)] pairs. *)
val build : (string * Parsetree.structure) list -> t

val defs : t -> def list
val find_def : t -> string -> def option
val roots : t -> root list

(** [resolve_in g ~file path] resolves a longident as seen from [file]:
    alias expansion, same-file suffix match (preferring the candidate
    sharing the longest path prefix with [?from], the caller's own
    path — an approximation of lexical scoping — then the most
    top-level one), then cross-file via the head component as a file
    module, with dune library wrappers ([Core.], ...) dropped. *)
val resolve_in : ?from:string list -> t -> file:string -> string list -> def option

(** ["lib/core/foo.ml"] is ["Foo"]. *)
val module_of_file : string -> string

(** ["Module.path.to.def"] for messages and trace steps. *)
val def_display : def -> string
