(* The benchmark owns the daemon's lifecycle: spawn [refnet serve] on
   free loopback ports, wait for the first handshake, scrape its
   Prometheus endpoint, then SIGTERM it and require exit 0.  Every
   spawned pid is also killed at exit, so a failing run leaks nothing. *)

open Serve

type t = { pid : int; listen : Daemon.listen; metrics_port : int }

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> Util.wrong "loopback socket has no port")

let forget pid = live := List.filter (fun p -> p <> pid) !live

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status ->
      forget pid;
      Some status
  | exception Unix.Unix_error _ -> Some (Unix.WEXITED 255)

(* [ready listen] is one successful connect + handshake. *)
let ready listen =
  match Client.connect listen with
  | Error _ -> false
  | Ok c ->
      let ok = Client.handshake c = Ok () in
      Client.close c;
      ok

let spawn_once ~refnet ~extra =
  let port = free_port () in
  let mport = free_port () in
  if port = mport then None
  else begin
    let args =
      Array.of_list
        ([
           refnet;
           "serve";
           "--listen";
           Printf.sprintf "tcp:127.0.0.1:%d" port;
           "--metrics-listen";
           Printf.sprintf "tcp:127.0.0.1:%d" mport;
           (* a daemon orphaned by a killed benchmark still stops *)
           "--max-run";
           "175";
         ]
        @ extra)
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close devnull)
        (fun () -> Unix.create_process refnet args devnull devnull Unix.stderr)
    in
    live := pid :: !live;
    let listen = Daemon.Tcp ("127.0.0.1", port) in
    let give_up = Span.now () +. 30. in
    let rec wait () =
      match exited pid with
      | Some _ -> None (* lost the port race: try fresh ports *)
      | None ->
          if ready listen then Some { pid; listen; metrics_port = mport }
          else if Span.now () > give_up then
            Util.wrong "refnet serve did not answer a handshake within 30 s"
          else begin
            Unix.sleepf 0.001;
            wait ()
          end
    in
    wait ()
  end

(* [spawn ~refnet ~extra] returns once the daemon has completed a
   handshake on its listen port. *)
let spawn ?(extra = []) ~refnet () =
  let rec attempt k =
    match spawn_once ~refnet ~extra with
    | Some d -> d
    | None when k < 5 -> attempt (k + 1)
    | None -> Util.wrong "refnet serve failed to start five times"
  in
  attempt 1

let read_all fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes b chunk 0 k;
        loop ()
  in
  loop ();
  Buffer.contents b

(* [scrape d] fetches the daemon's Prometheus text and sums each metric
   family over its label sets. *)
let scrape d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let text =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.metrics_port));
        let req = "GET /metrics HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        read_all fd)
  in
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> ()
           | Some sp -> (
               let key = String.sub line 0 sp in
               let base =
                 match String.index_opt key '{' with
                 | Some i -> String.sub key 0 i
                 | None -> key
               in
               match
                 float_of_string_opt
                   (String.sub line (sp + 1) (String.length line - sp - 1))
               with
               | Some v ->
                   let prev = Option.value ~default:0. (Hashtbl.find_opt tbl base) in
                   Hashtbl.replace tbl base (prev +. v)
               | None -> ()));
  if Hashtbl.length tbl = 0 then Util.wrong "empty Prometheus scrape";
  fun name -> Option.value ~default:0. (Hashtbl.find_opt tbl name)

let peak_rss_mb d = Util.vm_hwm_mb (Some d.pid)

(* [stop d] sends SIGTERM and requires a clean drain: exit code 0
   within 15 s.  Anything else is a failed run. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = Span.now () +. 15. in
  let rec wait () =
    match exited d.pid with
    | Some (Unix.WEXITED 0) -> Ok ()
    | Some (Unix.WEXITED c) -> Error (Printf.sprintf "daemon drained with exit %d" c)
    | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "daemon died on signal %d" s)
    | None ->
        if Span.now () > give_up then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
          forget d.pid;
          Error "daemon did not drain within 15 s"
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
  in
  wait ()
