(** Bounded job queue for the sweep daemon.

    Lifecycle: [Queued → Running → Done | Failed | Cancelled], plus
    [Running → Queued] on a drain ({!requeue} — the checkpoint makes the
    job resumable) or a supervised retry ({!retry} — with a backoff
    window that {!take} honors), and [Queued → Cancelled] directly.
    Admission depth counts Queued {e and} Running jobs — a Running job
    saturates the one-sweep-at-a-time pool — and {!submit} rejects at
    the cap, which the HTTP layer reports as 429. {!recover} re-admits
    jobs replayed from the WAL with their id and strike count intact.

    Metrics:
    [serve.jobs.{submitted,rejected,completed,failed,cancelled,recovered}],
    [serve.retry.scheduled], [serve.quarantine.jobs] counters and the
    [serve.queue.depth] gauge. *)

open Sinr_obs

type state = Queued | Running | Done | Failed | Cancelled

val state_name : state -> string

type job = {
  id : int;
  spec : Spec.t;
  cells_total : int;
  submitted_at : float;
  cancel : bool Atomic.t;
      (** polled by the runner at cell boundaries *)
  mutable state : state;
  mutable cells_done : int;
  mutable restored : int;  (** cells restored from a checkpoint *)
  mutable attempts : int;  (** supervision strikes (attempts started) *)
  mutable not_before : float;  (** retry backoff: {!take} skips until then *)
  mutable quarantined : bool;  (** parked as Failed by the supervisor *)
  mutable dump : string option;  (** flight-recorder dump path, if any *)
  mutable partial : Json.t option;
      (** completed cells so far, while the job runs; [None] once done *)
  mutable table : Json.t option;   (** final table once [Done] *)
  mutable error : string option;  (** last failure (cleared on Done) *)
  mutable finished_at : float option;
}

type t

val create : ?max_queued:int -> unit -> t
(** [max_queued] (default 8, clamped [>= 1]) caps Queued + Running. *)

val on_transition : t -> (job -> unit) -> unit
(** Install the state-transition hook (the daemon feeds {!Events} with
    it): called after every committed transition — submit, recover,
    take, cancel, finish, requeue, retry — while the queue mutex is
    held, so observers see transitions in commit order. The hook must
    not call back into the queue; exceptions are swallowed. *)

val max_queued : t -> int
val depth : t -> int

val submit : t -> Spec.t -> (job, [ `Backpressure of int ]) result
(** Admit or reject; [`Backpressure depth] carries the depth seen. Spec
    and registry validation are the caller's job — the queue only bounds. *)

val recover : t -> id:int -> spec:Spec.t -> attempts:int -> job
(** Re-admit a WAL-replayed job as Queued, preserving its id and strike
    count; bypasses the admission cap (the job was admitted once
    already) and bumps [next_id] past [id]. *)

val take : ?now:float -> t -> job option
(** Oldest runnable Queued job, flipped to Running. Jobs whose
    [not_before] is after [now] (default [gettimeofday]) are skipped —
    they are serving a retry backoff. *)

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

val progress : t -> job -> cells_done:int -> partial:Json.t -> unit

val finish :
  t -> job ->
  [ `Done of Json.t | `Failed of string | `Quarantined of string
  | `Cancelled ] -> unit
(** [`Done table] stores the table and drops [partial], which only holds
    results while the job runs. [`Quarantined] parks the job as Failed
    with [quarantined] set — the supervisor's poison verdict. *)

val requeue : t -> job -> unit
(** Drain: back to Queued, resumable from its checkpoint. *)

val retry : t -> job -> not_before:float -> error:string -> unit
(** Supervised retry: back to Queued, but {!take} will not hand the job
    out before [not_before]. *)
