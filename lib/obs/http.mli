(** Embedded HTTP endpoint: a minimal dependency-free HTTP/1.1 server
    (loopback-only, one background domain).

    Two layers share the listener:

    - the {b built-in read-only routes} — [GET /metrics] (the current
      {!Metrics.snapshot} as Prometheus text), [GET /healthz] (["ok"]) and
      [GET /spans] (the flight-recorder ring as JSONL) — always served;
    - an optional {b mounted handler} (the sweep daemon's job-control
      plane): consulted first for every GET/POST/DELETE; a [None] return
      falls through to the built-in routes.

    Request handling is bounded and non-smoke-client-safe: the request
    line + headers must fit {!max_header} bytes (431 otherwise), a
    declared body must fit {!max_body} (413), methods other than
    GET/POST/DELETE get a 405 with an [Allow] header, and every response
    — errors included — carries [Content-Length] and
    [Connection: close].

    Reading the built-in routes is safe while the simulation runs on
    other domains: they render from lock-free structures (sharded
    histograms, the span ring), so a scrape can never block the per-slot
    hot path. A mounted handler runs on the server domain and owns its
    own synchronization.

    Enabled from the CLI with [sinr_sim <cmd> --serve PORT] (read-only)
    or [sinr_sim serve] (job control). *)

type request = {
  meth : string;  (** ["GET"], ["POST"] or ["DELETE"] — no other method
                      reaches a handler *)
  path : string;  (** target with any query string stripped *)
  query : string; (** raw query string, [""] when absent *)
  body : string;  (** request body (clipped to [Content-Length]) *)
}

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;  (** extra headers, e.g. [Allow] *)
}

type handler = request -> response option
(** A route table: [Some response] serves it, [None] falls through to the
    built-in routes (404/405 if nothing matches). An exception becomes a
    500. *)

type stream = {
  s_status : int;
  s_content_type : string;  (** e.g. ["text/event-stream"] *)
  s_headers : (string * string) list;
  s_write : push:(string -> bool) -> should_stop:(unit -> bool) -> unit;
      (** Runs on a dedicated domain. [push] sends one chunk
          (chunked transfer-encoding) and returns [false] once the client
          disconnected or the server is stopping; the writer must then
          return promptly. Long-lived writers should also poll
          [should_stop] while idle. *)
}
(** A streaming response: status + headers sent immediately, body written
    incrementally for as long as the writer likes. Used for SSE event
    streams. *)

type stream_handler = request -> stream option
(** Consulted (GET only) before the regular [handler]; [Some stream]
    upgrades the connection to a streaming response served on its own
    domain — at most {!max_streams} at a time (503 beyond). [None] falls
    through to normal routing. *)

val response :
  ?content_type:string -> ?headers:(string * string) list -> int -> string
  -> response
(** Response constructor; [content_type] defaults to
    ["application/json"]. *)

type t
(** A running server (listening socket + accept-loop domain). *)

val max_header : int
(** Bound on the request line + header block, in bytes (431 past it). *)

val max_body : int
(** Bound on a declared request body, in bytes (413 past it). *)

val default_read_timeout : float
(** Per-connection request-read budget, in seconds (5.0). *)

val max_streams : int
(** Concurrent streaming connections (one domain each); 503 beyond. *)

val default_spans_last : int
(** Default cap on ring entries served by [GET /spans]; override with
    [?last=N] (the header line reports [total_entries] when truncated). *)

val serve :
  ?addr:string -> ?handler:handler -> ?stream_handler:stream_handler
  -> ?read_timeout:float -> port:int -> unit -> t
(** Bind [addr] (default ["127.0.0.1"]) on [port] and serve until {!stop},
    consulting [stream_handler] (GET only), then [handler], on every
    request. [port = 0] lets the kernel pick a free port — read it back
    with {!port}. Raises [Unix.Unix_error] if the bind fails (port
    taken). Starting a server also publishes the [build.info] gauge
    (constant 1, [version] label) and spins up a {!Procstat} ticker so
    [proc.rss_kb] / [proc.hwm_kb] / [gc.heap_words] gauges stay live on
    every scrape; {!stop} stops the ticker.

    [read_timeout] (default {!default_read_timeout}) is the slowloris
    guard: a wall-clock budget covering the {e whole} request read —
    request line, headers and body together. A client that opens a
    socket and dribbles (or never completes) its request gets a 408 and
    the connection is closed, so it can never pin the accept loop. *)

val port : t -> int
(** The actual bound port (useful after [serve ~port:0]). *)

val stop : t -> unit
(** Shut down the listener and join the server domain. Idempotent. *)

val handle : ?handler:handler -> string -> string
(** [handle raw] is the full HTTP response text for a raw request string
    (request line, headers, body) — the routing, bounds and method
    checks without the socket, exposed for tests. *)

