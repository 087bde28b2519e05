(** Parallel (parameter × seed) grid runner for the experiment harness,
    with a resumable cursor for checkpoint/resume.

    Each grid cell — one deployment build plus its simulation — runs as one
    [Sinr_par.Pool] task. The determinism contract of the pool carries
    over: results come back grouped by parameter in input order with seeds
    in input order, so an experiment's rows (and every value in them) are
    identical whatever the [jobs] setting.

    Cell functions must be self-contained: derive all randomness from the
    cell's own [(param, seed)] pair (the experiment modules all build
    [Rng.create (constant + seed)] streams), touch no shared mutable state,
    and print nothing — aggregation and table rendering happen in the
    calling domain afterwards.

    Because cells are pure in [(param, seed)], a grid can stop at any cell
    boundary and resume later (even in a different process) with results
    bit-identical to an uninterrupted run: {!cursor} holds the partial
    matrix, {!record} restores checkpointed cells, {!run_cursor} runs only
    what is missing. The sweep daemon ([lib/serve]) builds its
    resume-from-the-job-log on exactly this. *)

val cells : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map preserving order: one task per element. [jobs] defaults
    to [Pool.default_jobs ()]. *)

val grid :
  ?jobs:int -> params:'p list -> seeds:int list -> ('p -> int -> 'c)
  -> ('p * 'c list) list
(** [grid ~params ~seeds f] evaluates [f param seed] for the full cartesian
    grid, one cell per task, and regroups: one entry per parameter in input
    order, carrying its cells in seed order. *)

(** {1 Resumable cursor} *)

type ('p, 'c) cursor
(** A (param × seed) matrix of optional cell results, in input order. *)

val cursor : params:'p list -> seeds:int list -> ('p, 'c) cursor
(** Fresh cursor with every cell missing. Raises [Invalid_argument] on an
    empty axis. *)

val total : ('p, 'c) cursor -> int
val completed : ('p, 'c) cursor -> int
val is_complete : ('p, 'c) cursor -> bool

val record : ('p, 'c) cursor -> 'p -> int -> 'c -> bool
(** [record c p s v] fills cell [(p, s)] if it belongs to the grid and is
    still missing; [false] (and no change) otherwise — so a restore
    silently skips cells that don't belong or are already in.
    Parameters are matched with structural equality. *)

val remaining : ('p, 'c) cursor -> ('p * int) list
(** Missing cells in canonical grid order (params outer, seeds inner). *)

val completed_cells : ('p, 'c) cursor -> ('p * int * 'c) list
(** Filled cells in canonical grid order. *)

val results : ('p, 'c) cursor -> ('p * 'c list) list
(** The {!grid}-shaped table. Raises [Invalid_argument] if any cell is
    missing. *)

val run_cursor :
  ?jobs:int -> ?chunk:int -> ?should_stop:(unit -> bool)
  -> ?on_chunk:(('p, 'c) cursor -> ('p * int * 'c) list -> unit)
  -> ('p, 'c) cursor
  -> ('p -> int -> 'c) -> [ `Complete | `Stopped ]
(** Run the missing cells through the pool, [chunk] cells per batch (all
    of them when omitted). After each batch the results are recorded and
    [on_chunk cursor batch] fires with the batch's [(param, seed, cell)]
    in grid order (checkpoint hook); before each batch [should_stop] is
    polled — [true] returns [`Stopped] at the cell boundary, leaving the
    cursor resumable. Results are independent of [chunk], [jobs] and any
    stop/resume history. *)
