(** Bounded job queue for the sweep daemon: the live side of the job
    log.

    Lifecycle: [Queued → Running → Done | Failed | Cancelled], plus
    [Running → Queued] on a drain ({!requeue} — the job's logged cells
    make it resumable) or a supervised retry ({!retry} — with a backoff
    window that {!take} honors), and [Queued → Cancelled] directly.
    Admission depth counts Queued {e and} Running jobs — a Running job
    saturates the one-sweep-at-a-time pool — and {!submit} rejects at
    the cap, which the HTTP layer reports as 429.

    Every transition is one {!Wal.record}, committed in one step under
    the queue mutex: {!Job_state.apply} computes the next state, the
    record is appended to the WAL and a ["state"] event is published
    (not for [Cells]). Log order is therefore commit order. The
    fsync that makes a durable record safe runs after the mutex is
    released and before the transition returns.

    Metrics:
    [serve.jobs.{submitted,rejected,completed,failed,cancelled,recovered}],
    [serve.retry.scheduled], [serve.quarantine.jobs] counters and the
    [serve.queue.depth] gauge. *)

open Sinr_obs

type state = Job_state.state = Queued | Running | Done | Failed | Cancelled

val state_name : state -> string

type job = {
  id : int;
  spec : Spec.t;
  cells_total : int;
  cancel : bool Atomic.t;
      (** polled by the runner at cell boundaries *)
  mutable state : state;  (** with [attempts] and [quarantined]: a view
                              of {!log}, written only from
                              {!Job_state.apply}'s result *)
  mutable cells_done : int;
  mutable restored : int;  (** cells the latest attempt restored from the log *)
  mutable attempts : int;  (** attempts on record (drains withdrawn) *)
  mutable not_before : float;  (** retry backoff: {!take} skips until then *)
  mutable quarantined : bool;  (** parked as Failed by the supervisor *)
  mutable dump : string option;  (** flight-recorder dump path, if any *)
  mutable table : string option;
      (** the final table's JSON text once [Done]: the body of
          [GET /jobs/:id/table], parsed only when a request needs the
          tree *)
  mutable error : string option;  (** last failure (cleared on Done) *)
}

val state_event : job -> Json.t
(** The ["state"] event body published with each committed record:
    [{job_id, state, cells_done, cells_total, attempts, quarantined,
    error?}]. *)

type t

val create :
  ?max_queued:int -> ?wal:Wal.t -> ?events:Events.t -> ?log:Wal.record list
  -> unit -> t
(** [max_queued] (default 8, clamped [>= 1]) caps Queued + Running.
    Committed records are appended to [wal] and narrated on [events].
    [log] is records already on the WAL (recovery): they are applied —
    each [Submitted] re-admits its job with its id, past the cap — but
    neither re-appended nor published. *)

val max_queued : t -> int
val depth : t -> int

val submit : t -> Spec.t -> (job, [ `Backpressure of int ]) result
(** Admit or reject; [`Backpressure depth] carries the depth seen. Spec
    and registry validation are the caller's job — the queue only bounds. *)

val take : ?now:float -> t -> job option
(** Oldest runnable Queued job, started ([Started], one more attempt).
    Jobs whose [not_before] is after [now] (default [gettimeofday]) are
    skipped — they are serving a retry backoff. *)

val log : t -> Job_state.t
(** Every record committed so far (and [log] at creation), folded. *)

val find : t -> int -> job option
val jobs : t -> job list
(** Submission order. *)

val cancel :
  t -> int ->
  [ `Cancelled | `Cancelling | `Already_cancelled | `Already_finished
  | `Not_found ]
(** Queued jobs cancel immediately; Running jobs get their flag set and
    the runner confirms at the next cell boundary ([`Cancelling]).
    Cancelling an already-cancelled job is [`Already_cancelled] —
    idempotent success, the HTTP layer answers 200 — while a Done or
    Failed job is [`Already_finished] (409). *)

(** {1 Runner/supervisor-side transitions} *)

val progress : t -> job -> cells_done:int -> (int * int * Json.t) list -> unit
(** A checkpoint: records [Cells] of the cells finished since the job's
    previous record (grid order) and sets [cells_done]. *)

val finish :
  t -> job ->
  [ `Done of Json.t | `Failed of string | `Quarantined of string
  | `Cancelled ] -> unit
(** [`Done table] stores the table as its JSON text; the terminal record
    drops the job's logged cells. [`Quarantined] parks the
    job as Failed with [quarantined] set — the supervisor's poison
    verdict. *)

val requeue : t -> job -> unit
(** Drain: [Yielded] — back to Queued, the attempt withdrawn, resumable
    from its logged cells. *)

val retry : t -> job -> not_before:float -> error:string -> unit
(** Supervised retry: [Strikes attempts] — back to Queued with the
    attempt on record, but {!take} will not hand the job out before
    [not_before]. *)
