(* Supervision for daemon jobs: deadlines, capped-exponential-backoff
   retries, and poison quarantine.

   [run] wraps one attempt (started by [Queue.take]) with a wall-clock
   deadline, enforced at cell boundaries through the runner's
   should_stop — cells are the atomicity unit everywhere in lib/serve —
   and a per-cell budget measured at cell completion through wrap_cell,
   then settles the runner's outcome in one match; each transition it
   commits is one WAL record through Queue.  The retry policy mirrors
   Mac_driver.with_retry: what backoff slots are to the MAC layer,
   wall-clock seconds are to the daemon.

   A cell that never returns cannot be preempted in-process (cells run
   as pool tasks); it is caught across processes — its Started record
   has no closing record, so the restart counts the strike, and a job
   that wedges the process repeatedly is quarantined at recovery. *)

open Sinr_obs

let m_attempts = Metrics.counter "serve.retry.attempts"
let m_recovered = Metrics.counter "serve.retry.recovered"
let m_gave_up = Metrics.counter "serve.retry.gave_up"
let m_deadline = Metrics.counter "serve.deadline.exceeded"
let m_cell_timeout = Metrics.counter "serve.cell.timeouts"
let h_cell = Metrics.histogram "serve.cell.seconds"

exception Cell_timeout of { param : int; seed : int; elapsed : float }

let () =
  Printexc.register_printer (function
    | Cell_timeout { param; seed; elapsed } ->
      Some
        (Printf.sprintf
           "cell (param=%d, seed=%d) exceeded its budget (ran %.3fs)" param
           seed elapsed)
    | _ -> None)

type policy = {
  deadline_s : float;
  cell_timeout_s : float;
  max_retries : int;
  base_backoff_s : float;
  max_backoff_s : float;
}

let default_policy =
  { deadline_s = 0.;
    cell_timeout_s = 0.;
    max_retries = 2;
    base_backoff_s = 0.25;
    max_backoff_s = 30. }

type t = {
  policy : policy;
  now : unit -> float;
}

let create ?(policy = default_policy) ?(now = Unix.gettimeofday) () =
  { policy =
      { policy with
        max_retries = max 0 policy.max_retries;
        base_backoff_s = max 0.001 policy.base_backoff_s;
        max_backoff_s = max policy.base_backoff_s policy.max_backoff_s };
    now }

let policy t = t.policy

(* Capped exponential: base * 2^(strikes-1), clamped. *)
let backoff t ~strikes =
  let p = t.policy in
  min p.max_backoff_s (p.base_backoff_s *. (2. ** float_of_int (max 0 (strikes - 1))))

let emit notify typ body =
  match notify with None -> () | Some f -> f ~typ body

(* Quarantine: park the job as Failed with the flight recorder attached.
   The dump is best-effort — a full disk must not turn parking a poison
   job into a crash loop. *)
let quarantine ?notify ~dir queue (job : Queue.job) reason =
  let msg =
    Printf.sprintf "quarantined after %d strikes: %s" job.Queue.attempts
      reason
  in
  (match
     Recorder.dump
       ~path:
         (Filename.concat dir
            (Printf.sprintf "serve-job%d-quarantine.jsonl" job.Queue.id))
       ~reason:(Printf.sprintf "quarantine job %d" job.Queue.id)
       ()
   with
  | path -> job.Queue.dump <- Some path
  | exception _ -> ());
  Queue.finish queue job (`Quarantined msg);
  Metrics.incr m_gave_up;
  emit notify "quarantine"
    (Json.Obj
       (List.concat
          [ [ ("job_id", Json.int job.Queue.id);
              ("attempts", Json.int job.Queue.attempts);
              ("reason", Json.Str msg) ];
            (match job.Queue.dump with
             | Some p -> [ ("dump", Json.Str p) ]
             | None -> []) ]))

(* One failed attempt: retry with backoff while strikes fit the policy,
   quarantine past it. *)
let strike t ?notify ~dir queue (job : Queue.job) reason =
  if job.Queue.attempts > t.policy.max_retries then
    quarantine ?notify ~dir queue job reason
  else begin
    let delay = backoff t ~strikes:job.Queue.attempts in
    Queue.retry queue job ~not_before:(t.now () +. delay)
      ~error:
        (Printf.sprintf "attempt %d failed (%s); retrying in %.2gs"
           job.Queue.attempts reason delay);
    emit notify "retry"
      (Json.Obj
         [ ("job_id", Json.int job.Queue.id);
           ("attempt", Json.int job.Queue.attempts);
           ("error", Json.Str reason);
           ("backoff_s", Json.Num delay) ])
  end

let run t ?notify ?(should_stop = fun () -> false) ?(checkpoint_every = 4)
    ~dir queue (job : Queue.job) =
  let p = t.policy in
  Metrics.incr m_attempts;
  let started = t.now () in
  let deadline_hit = ref false in
  let stop () =
    should_stop ()
    ||
    (p.deadline_s > 0.
     && t.now () -. started > p.deadline_s
     &&
     (deadline_hit := true;
      true))
  in
  let hj_cell =
    Metrics.histogram_with "serve.cell.seconds"
      (Metrics.labels [ ("job_id", string_of_int job.Queue.id) ])
  in
  let wrap_cell ~param ~seed ~cell =
    let c0 = t.now () in
    let v = cell param seed in
    let dt = t.now () -. c0 in
    Metrics.observe h_cell dt;
    Metrics.observe hj_cell dt;
    if p.cell_timeout_s > 0. && dt > p.cell_timeout_s then begin
      Metrics.incr m_cell_timeout;
      raise (Cell_timeout { param; seed; elapsed = dt })
    end;
    v
  in
  (* the attempt's one disposition, decided from the runner's outcome *)
  let settle = function
    | `Done table ->
      if job.Queue.attempts > 1 then Metrics.incr m_recovered;
      Queue.finish queue job (`Done table)
    | `Cancelled -> Queue.finish queue job `Cancelled
    | `Failed msg -> strike t ?notify ~dir queue job msg
    | `Stopped when !deadline_hit && not (should_stop ()) ->
      (* a deadline is a strike — checkpointed progress survives into the
         next attempt, so a job that makes headway each attempt still
         completes *)
      Metrics.incr m_deadline;
      strike t ?notify ~dir queue job
        (Printf.sprintf "deadline %.2gs exceeded (%d/%d cells done)"
           p.deadline_s job.Queue.cells_done job.Queue.cells_total)
    | `Stopped ->
      (* genuine drain: not a strike — close the attempt gracefully *)
      Queue.requeue queue job
  in
  Runner.run_job ~checkpoint_every ~should_stop:stop ~wrap_cell ~settle
    ?notify queue job
