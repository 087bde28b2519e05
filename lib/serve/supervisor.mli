(** Supervision for daemon jobs: wall-clock deadlines, per-cell budgets,
    capped-exponential-backoff retries, and poison quarantine.

    {!run} drives one attempt of a taken {!Queue.job} through
    {!Runner.run_job} and settles the outcome through {!Queue}'s
    transitions (each one WAL record): success and cancellation are
    terminal; a drain closes the attempt gracefully ([Yielded] — not a
    strike); any failure — a cell exception, a cell over its
    [cell_timeout_s] budget, or the job over its [deadline_s] — is a
    strike.  Strikes up to [max_retries] are retried with capped
    exponential backoff ([base_backoff_s] doubling to [max_backoff_s],
    the {!Sinr_proto.Mac_driver.with_retry} policy shape in wall-clock
    seconds); past that the job is {e quarantined}: parked as Failed
    with [quarantined] set and a flight-recorder dump attached, so one
    poison spec can never wedge the queue.

    Deadlines and cancellation are enforced at cell boundaries (cells
    are the atomicity unit); a cell that never returns is caught by the
    cross-process path — its WAL [Started] record has no closing record,
    so the next restart counts the strike.

    Metrics: [serve.retry.{attempts,recovered,gave_up}],
    [serve.deadline.exceeded], [serve.cell.timeouts] and the
    [serve.cell.seconds] histogram — the histogram also observed into a
    labeled [{job_id="<id>"}] child per attempt (plus
    [serve.retry.scheduled] and [serve.quarantine.jobs] from {!Queue}). *)

open Sinr_obs

exception Cell_timeout of { param : int; seed : int; elapsed : float }
(** Raised (by the cell wrapper, at cell completion) when a cell ran
    past [cell_timeout_s]. *)

type policy = {
  deadline_s : float;  (** wall-clock budget per attempt; [<= 0] = none *)
  cell_timeout_s : float;  (** budget per cell; [<= 0] = none *)
  max_retries : int;  (** strikes beyond the first attempt before
                          quarantine: a job is parked on strike
                          [max_retries + 1] *)
  base_backoff_s : float;  (** first retry delay *)
  max_backoff_s : float;  (** backoff cap *)
}

val default_policy : policy
(** No deadline, no cell budget, 2 retries, 0.25 s base backoff capped
    at 30 s. *)

type t

val create : ?policy:policy -> ?now:(unit -> float) -> unit -> t
(** [now] (default [Unix.gettimeofday]) is injectable for tests. *)

val policy : t -> policy

val backoff : t -> strikes:int -> float
(** The delay scheduled after the [strikes]-th failed attempt. *)

val run :
  t -> ?notify:(typ:string -> Json.t -> unit)
  -> ?should_stop:(unit -> bool) -> ?checkpoint_every:int
  -> dir:string -> Queue.t -> Queue.job -> unit
(** Run one supervised attempt of a job {!Queue.take} has started.  On
    return the job is settled: Done, Cancelled, Failed (quarantined),
    Queued inside a backoff window (retry scheduled), or Queued cleanly
    (drain — [should_stop] fired).

    [notify] is forwarded to {!Runner.run_job} (cell / checkpoint / row
    events) and additionally fed supervision outcomes: ["retry"]
    [{job_id, attempt, error, backoff_s}] after a strike schedules a
    backoff, and ["quarantine"] [{job_id, attempts, reason, dump?}] when
    the job is parked. *)
