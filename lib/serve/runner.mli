(** Checkpointing sweep runner: drives one {!Queue.job} through
    [Sweep.run_cursor], snapshotting completed cells to an atomic JSONL
    checkpoint every [checkpoint_every] cells and restoring them on the
    next attempt.

    {b Bit-identity.} Cells are pure in [(param, seed)] and cell JSON
    prints byte-stably through parse/print, so a job killed and resumed
    any number of times yields a final table byte-identical to an
    uninterrupted run, whatever the [jobs] setting. Checkpoint matching
    compares the grid identity (exp, params, seeds) and ignores the
    execution knobs (jobs, tag).

    Metrics: [serve.cells.done], [serve.checkpoints],
    [serve.resume.cells] — each also bumped as a labeled
    [{job_id="<id>"}] child so [/jobs/:id/metrics] can serve a per-job
    scope. Every span opened during an attempt (including inside cells,
    on pool worker domains) carries a [job_id] attribute via
    {!Sinr_obs.Span.with_context}. *)

open Sinr_expt
open Sinr_obs

val checkpoint_path : dir:string -> Queue.job -> string
(** [<dir>/serve-<tag>.ckpt.jsonl], tag defaulting to [job<id>]. *)

val checkpoint_string : Spec.t -> (int, Json.t) Sweep.cursor -> string
(** Header line [{"serve_checkpoint":1,"spec":{...}}] then one
    [{"param":..,"seed":..,"cell":..}] line per completed cell. *)

val save : path:string -> Spec.t -> (int, Json.t) Sweep.cursor -> unit
(** Atomic write ({!Sink.write_file}) of {!checkpoint_string}. *)

val restore : path:string -> Spec.t -> (int, Json.t) Sweep.cursor -> int
(** Fill the cursor from a checkpoint; returns cells restored. Missing
    file, foreign spec, or malformed lines restore nothing/skip. *)

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
  -> dir:string -> Queue.t -> Queue.job -> unit
(** Run (or resume) one attempt of a taken (Running) job and hand its
    outcome to [settle]: the table, the job's cancel flag honored,
    [should_stop] fired without it, or a cell exception. The checkpoint
    is written in every case, and each checkpoint records its progress
    through {!Queue.progress}.

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
