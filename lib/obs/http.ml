(* Embedded HTTP endpoint: a minimal, dependency-free HTTP/1.1 server on a
   background domain.  PR 6 used it as a read-only scrape surface
   (/metrics, /healthz, /spans); the serve daemon now mounts a job-control
   handler on the same listener, so the server routes GET, POST and DELETE
   and reads request bodies.

   Scope stays deliberately small — one connection at a time,
   Connection: close on every response — because the clients are curl, a
   Prometheus scraper and the sweep daemon's own smoke tests, all of which
   retry.  Serving stays safe while the simulation runs on other domains:
   the built-in routes render lock-free structures (sharded histograms,
   the span ring), and a mounted handler is responsible for its own
   locking (the serve daemon's job queue takes a non-hot-path mutex).

   Bounds: the request line + headers must fit [max_header] bytes (else
   431) and a declared body must fit [max_body] (else 413).  Methods other
   than GET/POST/DELETE get a clean 405 with an Allow header instead of a
   dropped socket; every error response carries Content-Length and
   Connection: close so non-smoke clients can parse it.

   Shutdown: [stop] shuts the listening socket down, which makes the
   blocked [Unix.accept] in the server domain fail; the accept loop treats
   any listen-socket error as the exit signal and the domain is joined.
   Binds the loopback interface only — this is a local control port, not a
   public API. *)

type request = {
  meth : string;
  path : string;
  query : string;
  body : string;
}

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
}

type handler = request -> response option

(* A streaming response: headers are sent immediately, then [s_write]
   drives the body through chunked transfer-encoding for as long as it
   likes (SSE event streams).  [push] returns false once the client is
   gone or the server is stopping — the writer must then return.  Each
   accepted stream gets its own domain so the single-threaded request
   loop stays free for scrapes and job control. *)
type stream = {
  s_status : int;
  s_content_type : string;
  s_headers : (string * string) list;
  s_write : push:(string -> bool) -> should_stop:(unit -> bool) -> unit;
}

type stream_handler = request -> stream option

(* A live streaming connection: [done] flips when its domain is about to
   exit, letting the accept path prune-join finished streams without
   blocking on live ones. *)
type stream_slot = {
  sl_done : bool Atomic.t;
  sl_domain : unit Domain.t;
}

type t = {
  sock : Unix.file_descr;
  port : int;
  handler : handler option;
  stream_handler : stream_handler option;
  read_timeout : float;
  stopping : bool Atomic.t;
  mutable worker : unit Domain.t option;
  streams_mutex : Mutex.t;
  mutable streams : stream_slot list;
  ticker : Procstat.ticker;
}

let max_header = 8192
let max_body = 1 lsl 20 (* 1 MiB: job specs are small; anything bigger is noise *)
let default_read_timeout = 5.0

let max_streams = 16
(* concurrent streaming clients; one domain each, 503 beyond *)

let default_spans_last = 2048
(* /spans response cap: a full 32k-entry ring is megabytes per scrape *)

(* ------------------------------------------------------------------ *)
(* Request handling (pure: request text in, response text out)         *)
(* ------------------------------------------------------------------ *)

let response ?(content_type = "application/json") ?(headers = []) status body =
  { status; content_type; body; headers }

let status_text = function
  | 200 -> "200 OK"
  | 202 -> "202 Accepted"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 408 -> "408 Request Timeout"
  | 409 -> "409 Conflict"
  | 413 -> "413 Content Too Large"
  | 429 -> "429 Too Many Requests"
  | 431 -> "431 Request Header Fields Too Large"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | other -> string_of_int other ^ " Status"

let render (r : response) =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: \
     close\r\n\r\n%s"
    (status_text r.status) r.content_type (String.length r.body) extra r.body

let respond ~status ~content_type body =
  render (response ~content_type status body)

(* Decode "a=1&b=2" into an assoc list; valueless keys map to "". *)
let query_params q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
           ( String.sub kv 0 i,
             String.sub kv (i + 1) (String.length kv - i - 1) )
         | None -> (kv, ""))

let query_int q name =
  Option.bind (List.assoc_opt name (query_params q)) int_of_string_opt

(* Process start, for /healthz uptime (module init runs at load time). *)
let started_at = Unix.gettimeofday ()

let healthz_body () =
  let now = Unix.gettimeofday () in
  Json.to_string_json
    (Json.Obj
       [ ("status", Json.Str "ok");
         ("version", Json.Str Build_info.version);
         ("started_at", Json.Num started_at);
         ("uptime_s", Json.Num (now -. started_at)) ])
  ^ "\n"

(* The read-only observability routes, served whether or not a handler is
   mounted. *)
let body_for ?(query = "") path =
  match path with
  | "/metrics" ->
    Some
      ( "text/plain; version=0.0.4",
        Sink.snapshot_to_prometheus (Metrics.snapshot ()) )
  | "/healthz" -> Some ("application/json", healthz_body ())
  | "/spans" ->
    let last =
      match query_int query "last" with
      | Some n when n >= 0 -> n
      | Some _ | None -> default_spans_last
    in
    let job = query_int query "job" in
    Some
      ( "application/jsonl",
        Recorder.to_jsonl ~last ?job ~reason:"http-scrape" () )
  | _ -> None

let text_response status body =
  render (response ~content_type:"text/plain" status body)

(* Header-block terminator: "\r\n\r\n" or a bare "\n\n" from hand-typed
   clients.  Returns the offset just past the terminator. *)
let header_end s =
  let n = String.length s in
  let rec scan i =
    if i + 1 >= n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i + 2)
    else if
      s.[i] = '\n' && i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n'
    then Some (i + 3)
    else scan (i + 1)
  in
  scan 0

(* Case-insensitive header lookup over the raw header block; headers that
   don't parse as "name: value" are skipped rather than fatal. *)
let header_value block name =
  let lower = String.lowercase_ascii in
  let name = lower name in
  let lines = String.split_on_char '\n' block in
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None -> (
        match String.index_opt line ':' with
        | None -> None
        | Some i ->
          let k = lower (String.trim (String.sub line 0 i)) in
          if k = name then
            Some
              (String.trim
                 (String.sub line (i + 1) (String.length line - i - 1)))
          else None))
    None lines

let split_target target =
  match String.index_opt target '?' with
  | Some i ->
    ( String.sub target 0 i,
      String.sub target (i + 1) (String.length target - i - 1) )
  | None -> (target, "")

let known_methods = [ "GET"; "POST"; "DELETE" ]

let other_methods =
  [ "HEAD"; "PUT"; "PATCH"; "OPTIONS"; "TRACE"; "CONNECT" ]

(* Route one parsed request.  Handler first (it may shadow nothing — the
   built-in routes answer GETs the handler declined); without a handler the
   server is the PR 6 read-only surface and non-GET methods are refused. *)
let route ?handler (req : request) =
  let fallback () =
    if req.meth = "GET" then
      match body_for ~query:req.query req.path with
      | Some (content_type, body) -> respond ~status:200 ~content_type body
      | None -> text_response 404 "not found\n"
    else if handler <> None then text_response 404 "not found\n"
    else
      render
        (response ~content_type:"text/plain"
           ~headers:[ ("Allow", "GET") ]
           405 "only GET is served\n")
  in
  match handler with
  | None -> fallback ()
  | Some h -> (
    match h req with
    | Some r -> render r
    | None -> fallback ()
    | exception _ -> text_response 500 "internal error\n")

(* Outcome of parsing a raw request: either a structured request to
   route, or the error response text to write as-is.  Split from routing
   so the socket path can consult the stream handler on the parsed
   request before falling back to [route]. *)
type parsed = P_req of request | P_error of string

let parse_headers raw body_off =
  let head = String.sub raw 0 body_off in
  let line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> (
      match String.index_opt head '\n' with
      | Some i -> String.sub head 0 i
      | None -> head)
  in
  match String.split_on_char ' ' line with
  | [ meth; target; _version ] when List.mem meth known_methods ->
    let path, query = split_target target in
    let declared =
      match header_value head "content-length" with
      | Some v -> int_of_string_opt v
      | None -> None
    in
    (match declared with
     | Some len when len > max_body ->
       P_error (text_response 413 "request body too large\n")
     | Some len when len < 0 -> P_error (text_response 400 "bad request\n")
     | _ ->
       let avail = String.length raw - body_off in
       let body =
         match declared with
         | None -> String.sub raw body_off avail
         | Some len -> String.sub raw body_off (min len avail)
       in
       P_req { meth; path; query; body })
  | meth :: _ when List.mem meth other_methods ->
    P_error
      (render
         (response ~content_type:"text/plain"
            ~headers:[ ("Allow", String.concat ", " known_methods) ]
            405 "method not allowed\n"))
  | _ -> P_error (text_response 400 "bad request\n")

let parse raw =
  match header_end raw with
  | None ->
    if String.length raw >= max_header then
      P_error (text_response 431 "request header block too large\n")
    else
      (* No terminator in a complete request: treat everything as the
         header block (hand-typed one-liners land here). *)
      parse_headers raw (String.length raw)
  | Some body_off ->
    if body_off > max_header then
      P_error (text_response 431 "request header block too large\n")
    else parse_headers raw body_off

(* [handle raw] is the full response text for a raw request string (request
   line + headers + body).  Applies the same bounds as the socket path so
   the hardening is unit-testable. *)
let handle ?handler raw =
  match parse raw with
  | P_error resp -> resp
  | P_req req -> route ?handler req

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)
(* ------------------------------------------------------------------ *)

type read_outcome =
  | Complete of string
  | Header_overflow
  | Body_overflow
  | Timed_out
  | Empty

exception Read_deadline

(* One bounded read against a wall-clock deadline: the remaining budget
   becomes the socket receive timeout before every read(2), so a client
   trickling one byte per second (slowloris) cannot reset the clock and
   pin the single-threaded accept loop — the whole request must arrive
   inside the budget. *)
let read_within ~deadline fd chunk =
  let remaining = deadline -. Unix.gettimeofday () in
  if remaining <= 0. then raise Read_deadline;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO remaining;
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise Read_deadline

(* Read the header block (bounded by [max_header]), then the declared body
   (bounded by [max_body]), the whole request bounded by [deadline]. *)
let read_request ~deadline fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec read_head () =
    match header_end (Buffer.contents buf) with
    | Some off -> Some off
    | None ->
      if Buffer.length buf >= max_header then None
      else
        let n = read_within ~deadline fd chunk in
        if n = 0 then Some (Buffer.length buf) (* EOF: headers-only request *)
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          read_head ()
        end
  in
  match read_head () with
  | None -> Header_overflow
  | Some body_off ->
    if Buffer.length buf = 0 then Empty
    else begin
      let declared =
        match header_value (Buffer.contents buf) "content-length" with
        | Some v -> Option.value ~default:0 (int_of_string_opt v)
        | None -> 0
      in
      if declared > max_body then Body_overflow
      else begin
        let rec read_body () =
          if Buffer.length buf - body_off >= declared then ()
          else
            let n = read_within ~deadline fd chunk in
            if n = 0 then ()
            else begin
              Buffer.add_subbytes buf chunk 0 n;
              read_body ()
            end
        in
        read_body ();
        Complete (Buffer.contents buf)
      end
    end

let read_request ~deadline fd =
  try read_request ~deadline fd with Read_deadline -> Timed_out

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      go (off + n)
  in
  go 0

(* One chunk of a chunked transfer-encoded body. *)
let write_chunk fd s =
  if String.length s > 0 then
    write_all fd (Printf.sprintf "%x\r\n%s\r\n" (String.length s) s)

(* Body of a streaming connection's domain: send the status line and
   headers, hand [push]/[should_stop] to the writer, then terminate the
   chunked body and close.  A client that stops reading blocks the write
   for at most the SO_SNDTIMEO budget (set at accept), after which the
   failed write turns [push] false and the writer winds down — a stalled
   watcher can never wedge anything but its own stream. *)
let run_stream t fd (st : stream) =
  let ok = ref true in
  let guarded f = try f () with _ -> ok := false in
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) st.s_headers)
  in
  guarded (fun () ->
    write_all fd
      (Printf.sprintf
         "HTTP/1.1 %s\r\nContent-Type: %s\r\nTransfer-Encoding: \
          chunked\r\nCache-Control: no-cache\r\n%sConnection: close\r\n\r\n"
         (status_text st.s_status) st.s_content_type extra));
  let push s =
    if !ok && not (Atomic.get t.stopping) then begin
      guarded (fun () -> write_chunk fd s);
      !ok
    end
    else false
  in
  let should_stop () = (not !ok) || Atomic.get t.stopping in
  (try st.s_write ~push ~should_stop with _ -> ());
  if !ok && not (Atomic.get t.stopping) then
    guarded (fun () -> write_all fd "0\r\n\r\n")

(* Join streams whose domains have announced completion; caller holds
   [streams_mutex].  Joining a finished domain returns immediately, so
   this never blocks the accept path on a live client. *)
let prune_streams_locked t =
  let live, finished =
    List.partition (fun sl -> not (Atomic.get sl.sl_done)) t.streams
  in
  List.iter (fun sl -> Domain.join sl.sl_domain) finished;
  t.streams <- live

let spawn_stream t fd st =
  Mutex.lock t.streams_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.streams_mutex) @@ fun () ->
  prune_streams_locked t;
  if List.length t.streams >= max_streams then false
  else begin
    let done_flag = Atomic.make false in
    let domain =
      Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Atomic.set done_flag true)
          (fun () -> run_stream t fd st))
    in
    t.streams <- { sl_done = done_flag; sl_domain = domain } :: t.streams;
    true
  end

(* Returns [`Close] when the accept loop still owns the fd, [`Handed_off]
   when a stream domain took it over. *)
let handle_client t fd =
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  let deadline = Unix.gettimeofday () +. t.read_timeout in
  match read_request ~deadline fd with
  | Empty -> `Close
  | Timed_out ->
    (* slowloris guard: a socket that dribbles (or never completes) its
       request inside the idle budget gets a clean 408, not a pinned
       accept loop *)
    write_all fd (text_response 408 "request read timeout\n");
    `Close
  | Header_overflow ->
    write_all fd (text_response 431 "request header block too large\n");
    `Close
  | Body_overflow ->
    write_all fd (text_response 413 "request body too large\n");
    `Close
  | Complete raw -> (
    match parse raw with
    | P_error resp ->
      write_all fd resp;
      `Close
    | P_req req -> (
      let stream =
        match t.stream_handler with
        | Some sh when req.meth = "GET" -> ( try sh req with _ -> None)
        | _ -> None
      in
      match stream with
      | Some st ->
        if spawn_stream t fd st then `Handed_off
        else begin
          write_all fd (text_response 503 "too many streaming clients\n");
          `Close
        end
      | None ->
        write_all fd (route ?handler:t.handler req);
        `Close))

let accept_loop t =
  let rec loop () =
    match Unix.accept t.sock with
    | fd, _addr ->
      let outcome = try handle_client t fd with _ -> `Close in
      (match outcome with
       | `Close -> ( try Unix.close fd with Unix.Unix_error _ -> ())
       | `Handed_off -> ());
      if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error _ ->
      (* The listening socket was closed (stop) or is unusable; either way
         the server's life is over. *)
      ()
  in
  loop ()

let serve ?(addr = "127.0.0.1") ?handler ?stream_handler
    ?(read_timeout = default_read_timeout) ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    (* With port 0 the kernel picked one; report the real port either way. *)
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (* Deploy marker: a constant-1 gauge whose version label identifies the
     running build on every scrape of this server. *)
  Metrics.set
    (Metrics.gauge_with "build.info"
       (Metrics.labels [ ("version", Build_info.version) ]))
    1.0;
  let t =
    { sock; port; handler; stream_handler; read_timeout;
      stopping = Atomic.make false; worker = None;
      streams_mutex = Mutex.create (); streams = [];
      ticker = Procstat.start_ticker () }
  in
  t.worker <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* shutdown(2) — not close — wakes a thread blocked in accept(2) on
       Linux; close only marks the fd and leaves the accept sleeping.  The
       fd itself is closed after the join, so its number cannot be reused
       under the still-running server domain. *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.worker with
    | Some d ->
      t.worker <- None;
      Domain.join d
    | None -> ());
    (* Streaming writers poll [should_stop] (now true) between events and
       their pushes start failing, so every stream domain is on its way
       out; join them all before releasing the listener fd. *)
    Mutex.lock t.streams_mutex;
    let streams = t.streams in
    t.streams <- [];
    Mutex.unlock t.streams_mutex;
    List.iter (fun sl -> Domain.join sl.sl_domain) streams;
    Procstat.stop_ticker t.ticker;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
