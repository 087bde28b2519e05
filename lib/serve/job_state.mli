(** The daemon's job table as a pure fold over {!Wal} records.

    Every job transition is one {!Wal.record}; {!apply} is the one
    function that turns a record into the next table. The live queue
    applies, appends and publishes each record in one step
    ({!Queue}), and recovery folds {!apply} over {!Wal.replay}, so the
    table a restart rebuilds is the table the crashed process had —
    each live job's finished cells included, which is what an attempt
    resumes from. *)

open Sinr_obs

type state = Queued | Running | Done | Failed | Cancelled

val state_name : state -> string
val terminal : state -> bool

type job = {
  spec : Spec.t option;
      (** [None] while the id's records precede its [Submitted] *)
  state : state;
  attempts : int;  (** attempts on record: started, not closed by a drain *)
  quarantined : bool;
  cells : (int * int * Json.t) list;
      (** [(param, seed, cell)] from the job's [Cells] records, in log
          order; [[]] once the job is terminal *)
}

type t

val empty : t

val apply : t -> Wal.record -> t
(** Per event, on job [r.job]:
    - [Submitted spec]: admits a new id as Queued with no attempts; on a
      known id it only fills in a missing spec — a late [Submitted]
      never re-opens a job;
    - [Started _]: Running, one more attempt;
    - [Yielded]: Queued, the attempt withdrawn (a drain is not a strike);
    - [Strikes n]: Queued with [n] attempts on record (a retry, or the
      compaction form);
    - [Cells cs]: [cs] appended to the job's cells;
    - [Completed] / [Cancelled] / [Failed _] / [Quarantined _]: the
      terminal state, with the cells dropped; later records leave it
      untouched. *)

val find : t -> int -> job option

val jobs : t -> (int * job) list
(** Ascending id. *)

val compact : t -> Wal.record list
(** The live jobs (not terminal, spec known) as [Submitted], then
    [Strikes n] when [n > 0], then one [Cells] record of every logged
    cell: folding {!apply} over the result admits each as Queued with its
    attempts and cells — an open attempt (Running at the crash) becomes
    a strike. When the newest job is settled it follows
    as [Submitted] and a closing record, so its id is never reused. *)
