(* Bounded job queue with the daemon's admission control.

   Depth counts Queued plus Running jobs: the pool runs one sweep at a
   time, so a Running job means the pool is saturated and everything
   behind it is waiting — both belong in the backpressure figure.  When
   depth reaches the cap, [submit] rejects and the HTTP layer turns that
   into a 429 rather than letting clients build an unbounded backlog.

   All state transitions happen under one mutex; the only lock-free piece
   is each job's [cancel] flag, which the runner polls from inside the
   sweep at cell boundaries. *)

open Sinr_obs

let m_submitted = Metrics.counter "serve.jobs.submitted"
let m_rejected = Metrics.counter "serve.jobs.rejected"
let m_completed = Metrics.counter "serve.jobs.completed"
let m_failed = Metrics.counter "serve.jobs.failed"
let m_cancelled = Metrics.counter "serve.jobs.cancelled"
let m_recovered = Metrics.counter "serve.jobs.recovered"
let m_retry_scheduled = Metrics.counter "serve.retry.scheduled"
let m_quarantined = Metrics.counter "serve.quarantine.jobs"
let g_depth = Metrics.gauge "serve.queue.depth"

type state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type job = {
  id : int;
  spec : Spec.t;
  cells_total : int;
  submitted_at : float;
  cancel : bool Atomic.t;
  mutable state : state;
  mutable cells_done : int;
  mutable restored : int;
  mutable attempts : int;
  mutable not_before : float;
  mutable quarantined : bool;
  mutable dump : string option;
  mutable partial : Json.t option;
  mutable table : Json.t option;
  mutable error : string option;
  mutable finished_at : float option;
}

type t = {
  mutex : Mutex.t;
  max_queued : int;
  mutable next_id : int;
  mutable entries : job list; (* newest first; [jobs] reverses *)
  mutable notify : (job -> unit) option;
      (* state-transition hook, fired under the mutex so observers see
         transitions in commit order; must not call back into the queue *)
}

let create ?(max_queued = 8) () =
  { mutex = Mutex.create ();
    max_queued = max 1 max_queued;
    next_id = 1;
    entries = [];
    notify = None }

let on_transition t f = t.notify <- Some f

(* Caller holds the mutex; exceptions in the hook must not poison a
   transition. *)
let notify_locked t job =
  match t.notify with
  | None -> ()
  | Some f -> ( try f job with _ -> ())

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let depth_locked t =
  List.length
    (List.filter (fun j -> j.state = Queued || j.state = Running) t.entries)

let set_depth_gauge t = Metrics.set g_depth (float_of_int (depth_locked t))

let depth t = locked t (fun () -> depth_locked t)
let max_queued t = t.max_queued

let submit t spec =
  locked t (fun () ->
      let d = depth_locked t in
      if d >= t.max_queued then begin
        Metrics.incr m_rejected;
        Error (`Backpressure d)
      end
      else begin
        let job =
          { id = t.next_id;
            spec;
            cells_total = Spec.cells spec;
            submitted_at = Unix.gettimeofday ();
            cancel = Atomic.make false;
            state = Queued;
            cells_done = 0;
            restored = 0;
            attempts = 0;
            not_before = 0.;
            quarantined = false;
            dump = None;
            partial = None;
            table = None;
            error = None;
            finished_at = None }
        in
        t.next_id <- t.next_id + 1;
        t.entries <- job :: t.entries;
        Metrics.incr m_submitted;
        set_depth_gauge t;
        notify_locked t job;
        Ok job
      end)

(* WAL recovery: re-admit a job from a previous process with its id and
   strike count intact.  Bypasses the admission cap — these jobs were
   already admitted once, and refusing them would lose accepted work. *)
let recover t ~id ~spec ~attempts =
  locked t (fun () ->
      let job =
        { id;
          spec;
          cells_total = Spec.cells spec;
          submitted_at = Unix.gettimeofday ();
          cancel = Atomic.make false;
          state = Queued;
          cells_done = 0;
          restored = 0;
          attempts = max 0 attempts;
          not_before = 0.;
          quarantined = false;
          dump = None;
          partial = None;
          table = None;
          error = None;
          finished_at = None }
      in
      t.next_id <- max t.next_id (id + 1);
      (* keep entries newest-first by id so [jobs] lists submission order *)
      t.entries <-
        List.sort (fun a b -> compare b.id a.id) (job :: t.entries);
      Metrics.incr m_recovered;
      set_depth_gauge t;
      notify_locked t job;
      job)

let jobs t = locked t (fun () -> List.rev t.entries)

let find t id =
  locked t (fun () -> List.find_opt (fun j -> j.id = id) t.entries)

let take ?now t =
  let now = match now with Some f -> f | None -> Unix.gettimeofday () in
  locked t (fun () ->
      (* oldest runnable Queued first (entries are newest-first, so scan
         reversed); jobs inside their retry backoff window are skipped *)
      match
        List.find_opt
          (fun j -> j.state = Queued && j.not_before <= now)
          (List.rev t.entries)
      with
      | None -> None
      | Some j ->
        j.state <- Running;
        notify_locked t j;
        Some j)

let cancel t id =
  locked t (fun () ->
      match List.find_opt (fun j -> j.id = id) t.entries with
      | None -> `Not_found
      | Some j -> (
        match j.state with
        | Queued ->
          j.state <- Cancelled;
          j.finished_at <- Some (Unix.gettimeofday ());
          Metrics.incr m_cancelled;
          set_depth_gauge t;
          notify_locked t j;
          `Cancelled
        | Running ->
          Atomic.set j.cancel true;
          `Cancelling
        | Cancelled ->
          (* idempotent: cancelling a cancelled job is success, not
             conflict — retried DELETEs must converge *)
          `Already_cancelled
        | Done | Failed -> `Already_finished))

let progress t job ~cells_done ~partial =
  locked t (fun () ->
      job.cells_done <- cells_done;
      job.partial <- Some partial)

let finish t job outcome =
  locked t (fun () ->
      (match outcome with
       | `Done table ->
         job.state <- Done;
         job.table <- Some table;
         (* the table supersedes the last checkpoint's partial results *)
         job.partial <- None;
         job.error <- None; (* a success after retries clears the scar *)
         Metrics.incr m_completed
       | `Failed msg ->
         job.state <- Failed;
         job.error <- Some msg;
         Metrics.incr m_failed
       | `Quarantined msg ->
         job.state <- Failed;
         job.quarantined <- true;
         job.error <- Some msg;
         Metrics.incr m_failed;
         Metrics.incr m_quarantined
       | `Cancelled ->
         job.state <- Cancelled;
         Metrics.incr m_cancelled);
      job.finished_at <- Some (Unix.gettimeofday ());
      set_depth_gauge t;
      notify_locked t job)

(* Drain path: the runner stopped at a cell boundary for a reason that is
   not this job's cancel flag (process shutdown).  The checkpoint on disk
   holds everything done so far; putting the job back to Queued records
   that it is resumable, not finished. *)
let requeue t job =
  locked t (fun () ->
      job.state <- Queued;
      notify_locked t job)

(* Supervision path: the attempt failed for a reason worth retrying.  The
   job goes back to Queued but [take] will not hand it out before
   [not_before] — the supervisor's capped exponential backoff. *)
let retry t job ~not_before ~error =
  locked t (fun () ->
      job.state <- Queued;
      job.not_before <- not_before;
      job.error <- Some error;
      Metrics.incr m_retry_scheduled;
      set_depth_gauge t;
      notify_locked t job)
