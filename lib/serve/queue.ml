(* The live side of the job log (contract in queue.mli).  One mutex
   serializes [Job_state.apply], the WAL append and the ["state"]
   publish, so log order is commit order and a job is never taken before
   its Submitted record is written; the fsync runs after the mutex is
   released ([Wal.flush]), so progress commits never wait on the disk.
   Each job's [cancel] flag is the one lock-free piece, polled by the
   runner at cell boundaries. *)

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

type state = Job_state.state = Queued | Running | Done | Failed | Cancelled

let state_name = Job_state.state_name

type job = {
  id : int;
  spec : Spec.t;
  cells_total : int;
  cancel : bool Atomic.t;
  mutable state : state;
  mutable cells_done : int;
  mutable restored : int;
  mutable attempts : int;
  mutable not_before : float;
  mutable quarantined : bool;
  mutable dump : string option;
  mutable table : string option;
  mutable error : string option;
}

type t = {
  mutex : Mutex.t;
  max_queued : int;
  wal : Wal.t option;
  events : Events.t option;
  mutable log : Job_state.t;
  mutable next_id : int;
  mutable entries : job list; (* newest first; [jobs] reverses *)
  mutable live : job list; (* the Queued and Running entries, newest first *)
}

(* The ["state"] event body: enough for a watcher to render the job line
   without a follow-up GET. *)
let state_event job =
  Json.Obj
    (List.concat
       [ [ ("job_id", Json.int job.id);
           ("state", Json.Str (state_name job.state));
           ("cells_done", Json.int job.cells_done);
           ("cells_total", Json.int job.cells_total);
           ("attempts", Json.int job.attempts);
           ("quarantined", Json.Bool job.quarantined) ];
         (match job.error with Some e -> [ ("error", Json.Str e) ] | None -> []) ])

let is_live j = not (Job_state.terminal j.state)

(* [live] is bounded by admission: at most [max_queued] plus the running
   jobs. *)
let depth_locked t = List.length t.live

(* The job's logged fields are a view of [t.log]: this copy of
   [Job_state.apply]'s result is their only assignment, and the live list
   follows the state it sets. *)
let apply_locked t job r =
  t.log <- Job_state.apply t.log r;
  let was_live = is_live job in
  Option.iter
    (fun (s : Job_state.job) ->
      job.state <- s.state;
      job.attempts <- s.attempts;
      job.quarantined <- s.quarantined)
    (Job_state.find t.log job.id);
  match (was_live, is_live job) with
  | true, false -> t.live <- List.filter (fun j -> j != job) t.live
  | false, true -> t.live <- job :: t.live
  | true, true | false, false -> ()

(* The serve.jobs.* counters count committed records. *)
let counters = function
  | Wal.Submitted _ -> [ m_submitted ]
  | Wal.Completed -> [ m_completed ]
  | Wal.Failed _ -> [ m_failed ]
  | Wal.Quarantined _ -> [ m_failed; m_quarantined ]
  | Wal.Cancelled -> [ m_cancelled ]
  | Wal.Strikes _ -> [ m_retry_scheduled ]
  | Wal.Started _ | Wal.Cells _ | Wal.Yielded -> []

let commit_locked t job ev =
  let r = { Wal.job = job.id; ev } in
  apply_locked t job r;
  List.iter Metrics.incr (counters ev);
  Option.iter (fun w -> Wal.append w r) t.wal;
  Metrics.set g_depth (float_of_int (depth_locked t));
  match (t.events, ev) with
  | None, _ | _, Wal.Cells _ -> ()
  | Some e, _ -> Events.publish e ~job:job.id ~typ:"state" (state_event job)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* One committed step: [f] runs under the mutex, the WAL's durable
   records reach the disk after it is released. *)
let transition t f =
  let v = locked t f in
  Option.iter Wal.flush t.wal;
  v

(* A new job record, Queued once its Submitted record is applied. *)
let add_locked t id spec =
  let job =
    { id;
      spec;
      cells_total = Spec.cells spec;
      cancel = Atomic.make false;
      state = Queued;
      cells_done = 0;
      restored = 0;
      attempts = 0;
      not_before = 0.;
      quarantined = false;
      dump = None;
      table = None;
      error = None }
  in
  t.next_id <- max t.next_id (id + 1);
  t.entries <- job :: t.entries;
  t.live <- job :: t.live;
  job

let create ?(max_queued = 8) ?wal ?events ?(log = []) () =
  let t =
    { mutex = Mutex.create ();
      max_queued = max 1 max_queued;
      wal;
      events;
      log = Job_state.empty;
      next_id = 1;
      entries = [];
      live = [] }
  in
  (* records already on the log: rebuild, neither re-append nor publish;
     a job the log already settled only reserves its id *)
  List.iter
    (fun (r : Wal.record) ->
      match (r.Wal.ev, List.find_opt (fun j -> j.id = r.Wal.job) t.entries) with
      | _, Some job -> apply_locked t job r
      | Wal.Submitted spec, None -> apply_locked t (add_locked t r.Wal.job spec) r
      | _, None -> t.log <- Job_state.apply t.log r)
    log;
  t.entries <-
    List.sort (fun a b -> compare b.id a.id) (List.filter is_live t.entries);
  t.live <- t.entries;
  (* a re-admitted job's progress is the cells its log holds *)
  List.iter
    (fun j ->
      Option.iter
        (fun (s : Job_state.job) -> j.cells_done <- List.length s.Job_state.cells)
        (Job_state.find t.log j.id))
    t.entries;
  Metrics.add m_recovered (List.length t.entries);
  Metrics.set g_depth (float_of_int (depth_locked t));
  t

let depth t = locked t (fun () -> depth_locked t)
let max_queued t = t.max_queued
let log t = locked t (fun () -> t.log)

let submit t spec =
  transition t (fun () ->
      let d = depth_locked t in
      if d >= t.max_queued then begin
        Metrics.incr m_rejected;
        Error (`Backpressure d)
      end
      else begin
        let job = add_locked t t.next_id spec in
        commit_locked t job (Wal.Submitted spec);
        Ok job
      end)

let jobs t = locked t (fun () -> List.rev t.entries)

let find t id =
  locked t (fun () -> List.find_opt (fun j -> j.id = id) t.entries)

let take ?now t =
  let now = match now with Some f -> f | None -> Unix.gettimeofday () in
  transition t (fun () ->
      (* oldest runnable Queued first (the live list is newest-first, so
         scan it reversed); jobs inside their retry backoff window are
         skipped *)
      match
        List.find_opt
          (fun j -> j.state = Queued && j.not_before <= now)
          (List.rev t.live)
      with
      | None -> None
      | Some j ->
        commit_locked t j (Wal.Started (j.attempts + 1));
        Some j)

let cancel t id =
  transition t (fun () ->
      match List.find_opt (fun j -> j.id = id) t.entries with
      | None -> `Not_found
      | Some j -> (
        match j.state with
        | Queued ->
          commit_locked t j Wal.Cancelled;
          `Cancelled
        | Running ->
          Atomic.set j.cancel true;
          `Cancelling
        | Cancelled ->
          (* idempotent: cancelling a cancelled job is success, not
             conflict — retried DELETEs must converge *)
          `Already_cancelled
        | Done | Failed -> `Already_finished))

let progress t job ~cells_done cells =
  transition t (fun () ->
      job.cells_done <- cells_done;
      commit_locked t job (Wal.Cells cells))

let finish t job outcome =
  transition t (fun () ->
      commit_locked t job
        (match outcome with
         | `Done table ->
           (* kept as its JSON text, the bytes GET /jobs/:id/table
              serves: a chaos table's text is a seventh of its tree's
              words *)
           job.table <- Some (Json.to_string_json table);
           job.error <- None; (* a success after retries clears the scar *)
           Wal.Completed
         | `Failed msg ->
           job.error <- Some msg;
           Wal.Failed msg
         | `Quarantined msg ->
           job.error <- Some msg;
           Wal.Quarantined msg
         | `Cancelled -> Wal.Cancelled))

(* Drain path: the runner stopped at a cell boundary for a reason that is
   not this job's cancel flag (process shutdown).  The job's Cells
   records hold everything done so far; Yielded puts the job back to
   Queued and withdraws the attempt — a drain is not a strike. *)
let requeue t job = transition t (fun () -> commit_locked t job Wal.Yielded)

(* Supervision path: the attempt failed for a reason worth retrying.  The
   job goes back to Queued with the attempt on record as a strike, but
   [take] will not hand it out before [not_before] — the supervisor's
   capped exponential backoff. *)
let retry t job ~not_before ~error =
  transition t (fun () ->
      job.not_before <- not_before;
      job.error <- Some error;
      commit_locked t job (Wal.Strikes job.attempts))
