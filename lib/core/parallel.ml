(* A small persistent domain pool with chunked work stealing.

   Worker domains are spawned lazily on first use and kept parked on a
   condition variable between batches, so repeated parallel sections (the
   simulator runs one per protocol execution) pay no spawn cost.  Work is
   handed out in chunks through an atomic cursor; every participant —
   including the submitting domain — claims chunks until the batch is
   exhausted, so stragglers are stolen from automatically.

   Determinism contract: results are written into their final slot by
   index, so for a pure task function the output is bit-identical
   whatever the domain count or the scheduling. *)

let width_cap = 64

let env_domains () =
  match Sys.getenv_opt "REFNET_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some (min d width_cap)
    | _ -> None)

let default_domains =
  lazy
    (match env_domains () with
    | Some d -> d
    | None -> max 1 (min width_cap (Domain.recommended_domain_count ())))

let domain_count () = Lazy.force default_domains

type batch = {
  run : slot:int -> int -> int -> unit; (* ~slot start stop: items [start, stop) *)
  total : int;
  chunk : int;
  width : int;
  next : int Atomic.t;
  finished : int Atomic.t;
  cancelled : bool Atomic.t;
  mutable error : exn option; (* protected by the pool mutex *)
}

type pool = {
  mu : Mutex.t;
  work : Condition.t; (* parked workers wait here for a new generation *)
  done_ : Condition.t; (* the submitter waits here for batch completion *)
  mutable generation : int;
  mutable current : batch option;
  mutable spawned : int;
  mutable workers : unit Domain.t list;
  mutable shutdown : bool;
}

let execute pool b ~slot =
  let rec loop () =
    let start = Atomic.fetch_and_add b.next b.chunk in
    if start < b.total then begin
      let stop = min b.total (start + b.chunk) in
      if not (Atomic.get b.cancelled) then begin
        try b.run ~slot start stop
        with e ->
          Atomic.set b.cancelled true;
          Mutex.lock pool.mu;
          if b.error = None then b.error <- Some e;
          Mutex.unlock pool.mu
      end;
      (* Claimed items count as retired even when cancellation skipped
         them, so [finished] always converges to [total]. *)
      let retired = stop - start in
      if Atomic.fetch_and_add b.finished retired + retired >= b.total then begin
        Mutex.lock pool.mu;
        Condition.broadcast pool.done_;
        Mutex.unlock pool.mu
      end;
      loop ()
    end
  in
  loop ()

let rec worker_loop p ~slot ~last =
  Mutex.lock p.mu;
  while (not p.shutdown) && p.generation = last do
    Condition.wait p.work p.mu
  done;
  if p.shutdown then Mutex.unlock p.mu
  else begin
    let gen = p.generation in
    let b = p.current in
    Mutex.unlock p.mu;
    (match b with
    | Some b when slot < b.width -> execute p b ~slot
    | _ -> ());
    worker_loop p ~slot ~last:gen
  end

let pool =
  lazy
    (let p =
       {
         mu = Mutex.create ();
         work = Condition.create ();
         done_ = Condition.create ();
         generation = 0;
         current = None;
         spawned = 0;
         workers = [];
         shutdown = false;
       }
     in
     at_exit (fun () ->
         Mutex.lock p.mu;
         p.shutdown <- true;
         Condition.broadcast p.work;
         Mutex.unlock p.mu;
         List.iter Domain.join p.workers);
     p)

let ensure_workers p width =
  if p.spawned < width - 1 then begin
    Mutex.lock p.mu;
    while p.spawned < width - 1 do
      let slot = p.spawned + 1 in
      p.workers <- Domain.spawn (fun () -> worker_loop p ~slot ~last:(-1)) :: p.workers;
      p.spawned <- p.spawned + 1
    done;
    Mutex.unlock p.mu
  end

(* One batch at a time; a parallel call issued from inside a running
   batch (or from a worker) falls back to inline sequential execution
   rather than deadlocking the pool. *)
let busy = Atomic.make false

let effective_width domains total =
  let w = match domains with Some d -> max 1 (min d width_cap) | None -> domain_count () in
  min w (max 1 total)

(* A submitted batch.  [Pooled] holds the pool's [busy] flag until its
   join; [Inline] (width 1, or a nested call) runs on the joining
   domain, so a batch that cannot overlap is not started early. *)
type state =
  | Inline of int * (slot:int -> int -> int -> unit)  (* total, run_chunk *)
  | Pooled of batch
  | Joined

type job = { mutable state : state; fold : unit -> unit }

(* The chunk-level core: [run_chunk ~slot start stop] must process the
   items in [[start, stop)].  Chunk granularity is also the
   instrumentation granularity — see [submit_batch]. *)
let submit_chunks ?domains ~total run_chunk =
  let width = effective_width domains total in
  if total <= 0 || width = 1 || not (Atomic.compare_and_set busy false true) then
    Inline (total, run_chunk)
  else
    match
      let p = Lazy.force pool in
      ensure_workers p width;
      let b =
        {
          run = run_chunk;
          total;
          chunk = max 1 (total / (width * 8));
          width;
          next = Atomic.make 0;
          finished = Atomic.make 0;
          cancelled = Atomic.make false;
          error = None;
        }
      in
      Mutex.lock p.mu;
      p.current <- Some b;
      p.generation <- p.generation + 1;
      Condition.broadcast p.work;
      Mutex.unlock p.mu;
      b
    with
    | b -> Pooled b
    | exception e ->
      Atomic.set busy false;
      raise e

(* The submitting domain joins in: it claims what the workers have not,
   then waits for the chunks in flight to retire before the pool is
   released. *)
let join_chunks = function
  | Joined -> invalid_arg "Parallel.join: the batch was already joined"
  | Inline (total, run_chunk) -> if total > 0 then run_chunk ~slot:0 0 total
  | Pooled b ->
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        let p = Lazy.force pool in
        execute p b ~slot:0;
        Mutex.lock p.mu;
        while Atomic.get b.finished < b.total do
          Condition.wait p.done_ p.mu
        done;
        p.current <- None;
        let err = b.error in
        Mutex.unlock p.mu;
        match err with Some e -> raise e | None -> ())

let join j =
  let st = j.state in
  j.state <- Joined;
  Fun.protect ~finally:j.fold (fun () -> join_chunks st)

let cancel j =
  match j.state with
  | Inline _ ->
    j.state <- Joined;
    j.fold ()
  | Pooled b ->
    Atomic.set b.cancelled true;
    (try join j with _ -> ())
  | Joined -> join j

(* Busy time is accumulated in a batch-local per-slot array — each slot
   is written by exactly one domain — and folded into the registry by
   the joining domain, honouring the Metrics single-writer discipline.
   The clock is called from worker domains, which {!Metrics.create}
   documents as a requirement on custom clocks.  Clocking happens once
   per {e chunk}, not per item, so instrumentation stays off the
   per-item hot path (the [bench/main.exe metrics] microbench holds
   live overhead under 5%). *)
let submit_batch ?domains ?metrics ~total run_item =
  let run_chunk ~slot start stop =
    for i = start to stop - 1 do
      run_item ~slot i
    done
  in
  match metrics with
  | Some m when total > 0 ->
    let busy = Array.make width_cap 0. in
    let wall0 = Metrics.now m in
    let instrumented ~slot start stop =
      let s = Metrics.now m in
      run_chunk ~slot start stop;
      busy.(slot) <- busy.(slot) +. (Metrics.now m -. s)
    in
    let fold () =
      let wall = Metrics.now m -. wall0 in
      Metrics.Counter.incr (Metrics.Counter.counter m "refnet_pool_batches_total");
      let tb = Metrics.Timer.timer m "refnet_pool_busy" in
      let ti = Metrics.Timer.timer m "refnet_pool_idle" in
      Array.iteri
        (fun slot b ->
          if b > 0. then begin
            Metrics.Timer.add tb ~domain:slot b;
            Metrics.Timer.add ti ~domain:slot (Float.max 0. (wall -. b))
          end)
        busy
    in
    { state = submit_chunks ?domains ~total instrumented; fold }
  | _ -> { state = submit_chunks ?domains ~total run_chunk; fold = ignore }

let run_batch ?domains ?metrics ~total run_item =
  join (submit_batch ?domains ?metrics ~total run_item)

let submit ?domains ?metrics n f =
  submit_batch ?domains ?metrics ~total:n (fun ~slot:_ i -> f i)

let init ?domains ?metrics n f =
  if n < 0 then invalid_arg "Parallel.init: negative length";
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    run_batch ?domains ?metrics ~total:(n - 1) (fun ~slot:_ i -> out.(i + 1) <- f (i + 1));
    out
  end

let map_array ?domains ?metrics f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f a.(0)) in
    run_batch ?domains ?metrics ~total:(n - 1) (fun ~slot:_ i -> out.(i + 1) <- f a.(i + 1));
    out
  end

let iter_range ?domains ?metrics n f = join (submit ?domains ?metrics n f)
