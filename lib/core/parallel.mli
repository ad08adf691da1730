(** A reusable domain pool for the embarrassingly parallel phases of the
    model: every node's local function is independent of every other's,
    and the reduction drivers probe O(n²) vertex pairs independently.

    Worker domains (OCaml 5 [Domain]s) are spawned lazily on first use,
    parked between batches, and joined at process exit.  Work is
    distributed by chunked work stealing over an atomic cursor; the
    calling domain participates, so a pool of width [w] uses [w - 1]
    spawned domains.

    {b Determinism.} Each result is written into its slot by index, so
    for pure task functions the output array is bit-identical whatever
    the width or scheduling.  The simulator relies on this to keep
    parallel transcripts byte-equal to sequential ones.

    {b Width selection.} Every entry point takes [?domains]; when
    omitted, the width is [REFNET_DOMAINS] if that environment variable
    is a positive integer (so [REFNET_DOMAINS=1] opts out of parallelism
    entirely), else [Domain.recommended_domain_count ()].

    {b Exceptions.} If a task raises, the batch is cancelled (chunks not
    yet started are skipped), and the first exception observed is
    re-raised in the caller after all in-flight chunks retire.

    {b Nesting.} A parallel call made while another batch is running —
    including from inside a task, or from the submitting domain between
    a {!submit} and its {!join} — degrades to inline sequential
    execution instead of deadlocking.

    {b Submit and join.} Every entry point is a {!submit} followed at
    once by its {!join}; there is one batch path.  A caller with work
    of its own in between (the simulator absorbs block [k] while block
    [k + 1] is produced) calls the two itself.  A pooled batch holds
    the pool's [busy] flag from its submit until its join returns, so
    every submit must be joined (or cancelled) exactly once, also when
    the work in between raises: until then every other parallel call
    runs inline.
    A batch that cannot go to the pool — width 1, or submitted while
    the pool is busy — does not start at submit: it runs at its join,
    on the joining domain, so the order of work is the sequential one.

    {b Metrics.} Every entry point takes [?metrics]; when given, each
    batch accumulates per-slot busy wall time in a batch-local array and
    folds it into the registry {e after} the join, on the joining
    domain: timers [refnet_pool_busy] / [refnet_pool_idle] (idle = batch
    wall time minus that slot's busy time) attributed per domain slot,
    and counter [refnet_pool_batches_total].  When absent, the
    uninstrumented code path runs — no clock calls at all. *)

(** [domain_count ()] is the default pool width. *)
val domain_count : unit -> int

(** [init ?domains ?metrics n f] is [Array.init n f] with [f] applied
    across the pool.  [f] must be pure (safe to run on any domain, any
    order). *)
val init : ?domains:int -> ?metrics:Metrics.t -> int -> (int -> 'a) -> 'a array

(** [map_array ?domains ?metrics f a] maps [f] over [a] across the pool. *)
val map_array : ?domains:int -> ?metrics:Metrics.t -> ('a -> 'b) -> 'a array -> 'b array

(** [iter_range ?domains ?metrics n f] runs [f i] for [i = 0 .. n - 1]
    across the pool. *)
val iter_range : ?domains:int -> ?metrics:Metrics.t -> int -> (int -> unit) -> unit

(** A submitted batch, to be {!join}ed or {!cancel}led exactly once. *)
type job

(** [submit ?domains ?metrics n f] starts [f i] for [i = 0 .. n - 1]
    on the pool's workers and returns at once; the submitting domain
    takes its share at the {!join}.  [f] must be pure with respect to
    everything the caller touches before the join.  [n <= 0] submits
    nothing. *)
val submit : ?domains:int -> ?metrics:Metrics.t -> int -> (int -> unit) -> job

(** [join j] runs what is left of [j] on the calling domain, waits for
    the chunks in flight and releases the pool.  It re-raises the first
    exception a task raised, after every chunk has retired.
    @raise Invalid_argument if [j] was already joined. *)
val join : job -> unit

(** [cancel j] gives up on [j]: chunks not yet started are skipped (all
    of them when [j] never went to the pool), the chunks in flight
    retire, the pool is released, and any exception a task raised is
    dropped.  For a caller that is already propagating an exception of
    its own.
    @raise Invalid_argument if [j] was already joined. *)
val cancel : job -> unit
