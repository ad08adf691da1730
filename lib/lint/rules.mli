(** The four invariant rules, as one pass over a parsed implementation.

    Rules work purely on the Parsetree — no typing environment — so
    module paths are matched syntactically ([View.make],
    [Core.View.make], [Stdlib.Random.int] all match) and fixture files
    may reference undefined names freely.  Suppressions and policy
    filtering happen in {!Driver}; this module reports every raw hit. *)

(** [check ~file ast] runs every rule over [ast], attributing findings
    to [file] ('/'-normalized; policy allowlists match against it). *)
val check : file:string -> Parsetree.structure -> Finding.t list
