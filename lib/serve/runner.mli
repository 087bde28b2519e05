(** Checkpointing sweep runner: drives one {!Queue.job} through
    [Sweep.run_cursor], committing every [checkpoint_every] cells to the
    job log as one [Cells] record ({!Queue.progress}) and restoring the
    logged cells on the next attempt.

    {b Bit-identity.} Cells are pure in [(param, seed)] and cell JSON
    prints byte-stably through parse/print, so a job killed and resumed
    any number of times yields a final table byte-identical to an
    uninterrupted run, whatever the [jobs] setting.

    Metrics: [serve.cells.done], [serve.checkpoints] (one per [Cells]
    record), [serve.resume.cells] — each also bumped as a labeled
    [{job_id="<id>"}] child so [/jobs/:id/metrics] can serve a per-job
    scope. Every span opened during an attempt (including inside cells,
    on pool worker domains) carries a [job_id] attribute via
    {!Sinr_obs.Span.with_context}. *)

open Sinr_expt
open Sinr_obs

val logged_cursor : Queue.t -> Queue.job -> (int, Json.t) Sweep.cursor
(** A cursor over the job's grid filled with its cells on the job log
    ({!Job_state.job.cells} in {!Queue.log}): what the next attempt
    resumes from, and the job's partial results while it is live. Cells
    outside the grid or already in are skipped ({!Sweep.record}). *)

val table_json : Registry.t -> Spec.t -> (int, Json.t) Sweep.cursor -> Json.t
(** The final table: [{"exp","param_name","seeds","rows":[{"param","cells"}]}].
    Raises if the cursor is incomplete. *)

val row_json : job:int -> int -> Json.t list -> Json.t
(** The ["row"] event body [{job_id, param, cells}]. *)

val rows : job:int -> Spec.t -> (int * Json.t) list -> (int * Json.t) list
(** The complete rows among [(param, cell)] pairs in canonical grid
    order: each param all of whose seeds are in, with its {!row_json} —
    cells in seed order, byte-identical to the matching {!table_json}
    row. *)

val run_job :
  ?checkpoint_every:int -> ?should_stop:(unit -> bool)
  -> ?wrap_cell:
       (param:int -> seed:int
        -> cell:(int -> int -> Sinr_obs.Json.t) -> Sinr_obs.Json.t)
  -> ?settle:
       ([ `Done of Json.t | `Cancelled | `Stopped | `Failed of string ]
        -> unit)
  -> ?notify:(typ:string -> Json.t -> unit)
  -> Queue.t -> Queue.job -> unit
(** Run (or resume, from {!logged_cursor}) one attempt of a taken
    (Running) job and hand its outcome to [settle]: the table, the job's
    cancel flag honored, [should_stop] fired without it, or a cell
    exception. Each chunk's cells are committed to the log before the
    next chunk starts, so a stopped or failed attempt leaves every
    finished cell resumable.

    The default [settle] finishes the job as Done, Cancelled or Failed
    and leaves a [`Stopped] attempt open (Running) — what a process
    death leaves on the log; the supervisor passes its own, which tells
    a drain from a deadline and a failure from a poison job.
    [wrap_cell] interposes on every cell evaluation (the supervisor
    times cells and raises on budget overrun).

    [notify] feeds the event stream: ["cell"] start/done around every
    cell (fired from pool worker domains), ["checkpoint"] after each
    checkpoint, and ["row"] with the full cell payload the moment a
    param's last seed lands — cells in seed order, byte-identical to the
    matching {!table_json} row. *)
