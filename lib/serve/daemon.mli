(** Sweep-as-a-service daemon: a bounded {!Queue} and supervised
    checkpointing {!Runner} over a durable {!Wal}, behind an [Obs.Http]
    handler.

    The handler claims the [/jobs] namespace plus [/readyz] —
    [POST /jobs] (202/400/429), [GET /jobs], [GET /jobs/:id],
    [GET /jobs/:id/table] (200/404/409), [GET /jobs/:id/metrics] (the
    job's labeled [{job_id="<id>"}] metric children as Prometheus text),
    [DELETE /jobs/:id] (200/202/404/409, idempotent on an
    already-cancelled job), [GET /readyz] (200, or 503 with JSON
    reasons: draining / saturated / wal-unwritable) — and returns [None]
    elsewhere so the observability server's builtin [/metrics],
    [/healthz] (pure liveness) and [/spans] keep working. Requests never
    run sweeps; the owner drives execution with {!step} from its own
    loop.

    {b Event streams.} Every committed job record, plus the
    runner's cell / checkpoint / row hooks and the supervisor's retry /
    quarantine verdicts, is published to an {!Events} broker. Mount
    {!stream_handler} alongside {!handler} to expose them as SSE:
    [GET /events] (firehose) and [GET /jobs/:id/events] (one job:
    synthesized [hello] greeting, replayed [row] backlog, then live
    events; the stream closes itself after a terminal [state] event). A
    slow client loses oldest-first from its own bounded buffer
    ([serve.events.dropped]) and never blocks the runner.

    {b Durability.} Every job transition is one {!Wal} record, applied,
    appended and published in one step ({!Queue}); admissions and
    terminal transitions are on disk before the HTTP response. {!create}
    replays the WAL — skipping a torn tail, quarantining a corrupt file
    and keeping the sound prefix — folds {!Job_state.apply} over it,
    compacts the log to the live jobs, re-admits them with their ids and
    attempts on record, and parks jobs whose attempts already exhaust
    the retry budget. Resumed jobs restore the cells their [Cells]
    records hold and finish with tables byte-identical to an
    uninterrupted run.

    Drain ({!request_drain}): in-flight cells finish and are logged,
    the running job returns to Queued (a [Yielded] WAL record — not a
    strike), {!step} refuses further work and [POST /jobs] answers 429. *)

open Sinr_obs

type t

val create :
  ?dir:string -> ?wal_dir:string -> ?max_queued:int ->
  ?checkpoint_every:int -> ?policy:Supervisor.policy -> unit -> t
(** [dir] (default ".") holds quarantine dumps; [wal_dir] (default
    [dir]) holds the WAL, finished cells included. [checkpoint_every]
    (default 4) is the cells per [Cells] record. Performs WAL recovery —
    replay, re-admission, compaction — before returning. *)

val queue : t -> Queue.t

val events : t -> Events.t
(** The broker behind {!stream_handler} — tests and embedders can
    subscribe directly. *)

val recovered : t -> int
(** Jobs re-admitted from the WAL at startup. *)

val wal_recovery : t -> [ `Clean | `Torn_tail | `Quarantined of string ]
(** What recovery found: a clean log, a torn final record (skipped), or
    mid-log corruption (the damaged file was moved to the returned
    path; the sound prefix was kept). *)

val handler : t -> Http.request -> Http.response option
(** Mount with [Http.serve ~handler:(Daemon.handler t)]. *)

val stream_handler : t -> Http.request -> Http.stream option
(** SSE routes ([/events], [/jobs/:id/events]); mount with
    [Http.serve ~stream_handler:(Daemon.stream_handler t)]. Unknown job
    ids fall through to {!handler} (404); without this mounted, GET on
    the event paths answers 503. *)

val step : t -> bool
(** Run the oldest runnable queued job through one supervised attempt
    (to a terminal state, a retry backoff, or its drain/cancel
    boundary); [false] when idle, draining, or every queued job is
    inside its backoff window — the caller sleeps then. *)

val request_drain : t -> unit
val draining : t -> bool

val close : t -> unit
(** Sync and close the WAL (the daemon itself needs no other teardown). *)
