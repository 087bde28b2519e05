(* The daemon glue: a [Queue] + [Supervisor]-driven [Runner] pair behind
   an [Obs.Http] handler, with a [Wal] underneath making the whole job
   store durable.  The handler mounts on the observability server (which
   keeps serving /metrics, /healthz and /spans as fallback GET routes)
   and claims the /jobs namespace plus /readyz:

     POST   /jobs            submit a sweep spec        202 | 400 | 429
     GET    /jobs            list jobs + queue state    200
     GET    /jobs/:id        status/progress/table      200 | 404
     GET    /jobs/:id/table  bare result table          200 | 404 | 409
     DELETE /jobs/:id        cancel (cell granularity)  200 | 202 | 404 | 409
     GET    /readyz          readiness probe            200 | 503

   /healthz (builtin) stays pure liveness — the process is up and
   serving.  /readyz is honest readiness: draining, a saturated queue,
   or an unwritable WAL answer 503 with a JSON reason, so a load
   balancer or operator script can tell "alive" from "accepting work".

   The handler runs on the HTTP accept domain; all job execution happens
   in the owner's [step] loop, so a request never blocks on a sweep.
   Durability and recovery are the job log's: [Queue] commits each
   transition as one WAL record, and [create] folds [Job_state.apply]
   over the replayed log. *)

open Sinr_obs
open Sinr_par

type t = {
  queue : Queue.t;
  dir : string;
  wal : Wal.t;
  supervisor : Supervisor.t;
  events : Events.t;
  checkpoint_every : int;
  draining : bool Atomic.t;
  recovered : int;
  wal_recovery : [ `Clean | `Torn_tail | `Quarantined of string ];
}

let create ?(dir = ".") ?wal_dir ?(max_queued = 8) ?(checkpoint_every = 4)
    ?policy () =
  let wal_dir = Option.value wal_dir ~default:dir in
  let supervisor = Supervisor.create ?policy () in
  let replay = Wal.replay ~dir:wal_dir in
  let wal_recovery =
    if replay.Wal.corrupt then
      match Wal.quarantine_file ~dir:wal_dir with
      | Some p -> `Quarantined p
      | None -> `Quarantined "(rename failed)"
    else if replay.Wal.torn_tail then `Torn_tail
    else `Clean
  in
  (* Recovery: the crashed process's job table, folded from its log, then
     compacted — the reopened WAL holds exactly the live jobs, each a
     spec and its attempts on record, instead of the full history. *)
  let live =
    Job_state.compact
      (List.fold_left Job_state.apply Job_state.empty replay.Wal.records)
  in
  let wal = Wal.reset ~dir:wal_dir live in
  let events = Events.create () in
  let queue = Queue.create ~max_queued ~wal ~events ~log:live () in
  let pol = Supervisor.policy supervisor in
  let recovered = Queue.jobs queue in
  List.iter
    (fun (job : Queue.job) ->
      (* a job that took the process down more often than the retry
         budget allows is poison: park it before it wedges the loop
         again *)
      if job.Queue.attempts > pol.Supervisor.max_retries then
        Queue.finish queue job
          (`Quarantined
             (Printf.sprintf
                "quarantined at recovery: %d attempts on record (crashed \
                 or never finished), budget %d"
                job.Queue.attempts pol.Supervisor.max_retries)))
    recovered;
  { queue;
    dir;
    wal;
    supervisor;
    events;
    checkpoint_every = max 1 checkpoint_every;
    draining = Atomic.make false;
    recovered = List.length recovered;
    wal_recovery }

let queue t = t.queue
let events t = t.events
let recovered t = t.recovered
let wal_recovery t = t.wal_recovery
let request_drain t = Atomic.set t.draining true
let draining t = Atomic.get t.draining
let close t = Wal.close t.wal

let step t =
  if Atomic.get t.draining then false
  else
    match Queue.take t.queue with
    | None -> false
    | Some job ->
      Supervisor.run t.supervisor
        ~notify:(fun ~typ body ->
          Events.publish t.events ~job:job.Queue.id ~typ body)
        ~should_stop:(fun () -> Atomic.get t.draining)
        ~checkpoint_every:t.checkpoint_every ~dir:t.dir t.queue job;
      true

(* ------------------------------------------------------------------ *)
(* HTTP handler                                                        *)
(* ------------------------------------------------------------------ *)

let json_response ?headers status j =
  Http.response ?headers status (Json.to_string_json j ^ "\n")

let error_response ?headers status msg =
  json_response ?headers status (Json.Obj [ ("error", Json.Str msg) ])

let opt_field name = function
  | None -> []
  | Some j -> [ (name, j) ]

let job_json ~full (job : Queue.job) =
  Json.Obj
    (List.concat
       [ [ ("id", Json.int job.Queue.id);
           ("exp", Json.Str job.Queue.spec.Spec.exp);
           ("state", Json.Str (Queue.state_name job.Queue.state));
           ("cells_done", Json.int job.Queue.cells_done);
           ("cells_total", Json.int job.Queue.cells_total);
           ("restored", Json.int job.Queue.restored);
           ("attempts", Json.int job.Queue.attempts);
           ("quarantined", Json.Bool job.Queue.quarantined) ];
         opt_field "error"
           (Option.map (fun e -> Json.Str e) job.Queue.error);
         opt_field "dump"
           (Option.map (fun p -> Json.Str p) job.Queue.dump);
         (if full then
            List.concat
              [ [ ("spec", Spec.to_json job.Queue.spec) ];
                opt_field "partial" job.Queue.partial;
                opt_field "table" (Option.map Json.parse job.Queue.table) ]
          else []) ])

let queue_state t =
  [ ("depth", Json.int (Queue.depth t.queue));
    ("cap", Json.int (Queue.max_queued t.queue));
    ("pool_in_flight", Json.int (Pool.in_flight (Pool.get ())));
    ("draining", Json.Bool (Atomic.get t.draining));
    ("wal_healthy", Json.Bool (Wal.healthy t.wal)) ]

(* Readiness: alive is not the same as accepting.  Each reason is a
   stable token an operator can alert on. *)
let readiness t =
  let reasons =
    List.concat
      [ (if Atomic.get t.draining then [ "draining" ] else []);
        (if Queue.depth t.queue >= Queue.max_queued t.queue then
           [ "saturated" ]
         else []);
        (if not (Wal.healthy t.wal) then [ "wal-unwritable" ] else []) ]
  in
  match reasons with
  | [] -> json_response 200 (Json.Obj [ ("ready", Json.Bool true) ])
  | reasons ->
    json_response 503
      (Json.Obj
         [ ("ready", Json.Bool false);
           ("reasons", Json.List (List.map (fun r -> Json.Str r) reasons)) ])

let submit t body =
  match Spec.of_string body with
  | Error msg -> error_response 400 msg
  | Ok spec -> (
    match Spec.validate spec with
    | Error msg -> error_response 400 msg
    | Ok () -> (
      match Registry.resolve spec with
      | Error msg -> error_response 400 msg
      | Ok _ -> (
        if Atomic.get t.draining then
          error_response 429 "draining: not accepting jobs"
        else
          match Queue.submit t.queue spec with
          | Error (`Backpressure depth) ->
            json_response 429
              (Json.Obj
                 (("error", Json.Str "queue full")
                 :: ("depth", Json.int depth)
                 :: ("cap", Json.int (Queue.max_queued t.queue))
                 :: ("pool_in_flight",
                     Json.int (Pool.in_flight (Pool.get ())))
                 :: []))
          | Ok job ->
            (* the Submitted record is on disk: a crash after this
               response cannot lose an acknowledged job *)
            json_response 202
              (Json.Obj
                 [ ("id", Json.int job.Queue.id);
                   ("state", Json.Str (Queue.state_name job.Queue.state));
                   ("cells", Json.int job.Queue.cells_total);
                   ( "checkpoint",
                     Json.Str (Runner.checkpoint_path ~dir:t.dir job) ) ]))))

let job_by_id t id_str =
  match int_of_string_opt id_str with
  | None -> None
  | Some id -> Queue.find t.queue id

let with_job t id_str f =
  match job_by_id t id_str with
  | None -> error_response 404 "no such job"
  | Some job -> f job

(* DELETE /jobs/:id is idempotent where idempotence is meaningful:
   cancelling a cancelled job re-answers 200 with the same state, while
   a Done/Failed job is a real conflict (409) — the work is not
   un-doable.  Documented in DESIGN.md §14. *)
let cancel t id_str =
  match int_of_string_opt id_str with
  | None -> error_response 404 "no such job"
  | Some id -> (
    match Queue.cancel t.queue id with
    | `Not_found -> error_response 404 "no such job"
    | `Already_finished ->
      error_response 409 "job already finished"
    | `Cancelled | `Already_cancelled ->
      json_response 200
        (Json.Obj [ ("id", Json.int id); ("state", Json.Str "cancelled") ])
    | `Cancelling ->
      json_response 202
        (Json.Obj [ ("id", Json.int id); ("state", Json.Str "cancelling") ]))

(* The bare table, for piping and byte-comparison (the crash-smoke
   diffing in CI curls this into a file and cmp(1)s it): the stored JSON
   text, newline-terminated as every JSON response is. *)
let table t id_str =
  with_job t id_str @@ fun job ->
  match (job.Queue.state, job.Queue.table) with
  | Queue.Done, Some table -> Http.response 200 (table ^ "\n")
  | _ ->
    error_response
      ~headers:[ ("X-Job-State", Queue.state_name job.Queue.state) ]
      409
      (Printf.sprintf "job is %s, table only exists once done"
         (Queue.state_name job.Queue.state))

(* GET /jobs/:id/metrics — the labeled [{job_id="<id>"}] children of the
   process registry, rendered as Prometheus text.  Two concurrent jobs
   expose disjoint scopes here while /metrics keeps the totals. *)
let job_metrics t id_str =
  with_job t id_str @@ fun job ->
  let want = ("job_id", string_of_int job.Queue.id) in
  let scoped =
    List.filter
      (fun (name, _) ->
        let _, pairs = Metrics.split_name name in
        List.mem want pairs)
      (Metrics.snapshot ())
  in
  Http.response ~content_type:"text/plain; version=0.0.4" 200
    (Sink.snapshot_to_prometheus scoped)

(* One route: its handlers by method; any other method is a 405 that
   lists the allowed ones. *)
let route (req : Http.request) path methods =
  Some
    (match List.assoc_opt req.Http.meth methods with
     | Some f -> f ()
     | None ->
       error_response
         ~headers:[ ("Allow", String.concat ", " (List.map fst methods)) ]
         405
         ("method not allowed on " ^ path))

let handler t (req : Http.request) =
  match String.split_on_char '/' req.Http.path with
  | [ ""; "readyz" ] -> route req "/readyz" [ ("GET", fun () -> readiness t) ]
  | [ ""; "jobs" ] ->
    route req "/jobs"
      [ ( "GET",
          fun () ->
            json_response 200
              (Json.Obj
                 (( "jobs",
                    Json.List
                      (List.map (job_json ~full:false) (Queue.jobs t.queue)) )
                 :: queue_state t)) );
        ("POST", fun () -> submit t req.Http.body) ]
  | [ ""; "jobs"; id ] ->
    route req "/jobs/:id"
      [ ( "GET",
          fun () -> with_job t id (fun job -> json_response 200 (job_json ~full:true job)) );
        ("DELETE", fun () -> cancel t id) ]
  | [ ""; "jobs"; id; "table" ] ->
    route req "/jobs/:id/table" [ ("GET", fun () -> table t id) ]
  | [ ""; "jobs"; id; "metrics" ] ->
    route req "/jobs/:id/metrics" [ ("GET", fun () -> job_metrics t id) ]
  (* GET on the event paths normally never lands here — the stream
     handler intercepts it.  Reaching this arm means the job id is
     unknown (the stream handler fell through) or streaming is not
     mounted on this server. *)
  | [ ""; "jobs"; id; "events" ] ->
    route req "/jobs/:id/events"
      [ ( "GET",
          fun () ->
            with_job t id (fun _ -> error_response 503 "event streaming not enabled") ) ]
  | [ ""; "events" ] ->
    route req "/events"
      [ ("GET", fun () -> error_response 503 "event streaming not enabled") ]
  | _ -> None (* /metrics, /healthz, /spans, 404: the builtin routes *)

(* ------------------------------------------------------------------ *)
(* SSE streams                                                         *)
(* ------------------------------------------------------------------ *)

let heartbeat_every = 10.0
let poll_sleep = 0.05

(* Snapshot greeting for a per-job stream: everything a late-joining
   watcher needs (the grid shape, progress so far) before live events
   resume the story. *)
let hello_json (job : Queue.job) =
  let spec = job.Queue.spec in
  Json.Obj
    (List.concat
       [ [ ("job_id", Json.int job.Queue.id);
           ("exp", Json.Str spec.Spec.exp) ];
         (match Registry.resolve spec with
          | Ok reg ->
            [ ("param_name", Json.Str reg.Registry.param_name) ]
          | Error _ -> []);
         [ ("params", Json.List (List.map Json.int spec.Spec.params));
           ("seeds", Json.List (List.map Json.int spec.Spec.seeds));
           ("cells_done", Json.int job.Queue.cells_done);
           ("cells_total", Json.int job.Queue.cells_total);
           ("state", Json.Str (Queue.state_name job.Queue.state));
           ("attempts", Json.int job.Queue.attempts);
           ("restored", Json.int job.Queue.restored);
           ("quarantined", Json.Bool job.Queue.quarantined) ] ])

(* Backlog replay: rows already complete when the client connected, as
   synthesized ["row"] events — from the final table when the job is
   done, else reassembled from the partial's cells (canonical grid
   order, so seed order within a row is preserved).  A row published
   live between our subscription and this snapshot may be replayed AND
   delivered; watchers dedup by param (cells are deterministic, so the
   duplicates are byte-identical). *)
let replay_rows (job : Queue.job) =
  let member_int k j = Option.bind (Json.member k j) Json.to_int in
  match (job.Queue.state, job.Queue.table, job.Queue.partial) with
  | Queue.Done, Some tbl, _ -> (
    match Json.member "rows" (Json.parse tbl) with
    | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          match (member_int "param" row, Json.member "cells" row) with
          | Some p, Some (Json.List cells) ->
            Some (Runner.row_json ~job:job.Queue.id p cells)
          | _ -> None)
        rows
    | _ -> [])
  | _, _, Some partial -> (
    match Json.member "cells" partial with
    | Some (Json.List cells) ->
      List.map snd
        (Runner.rows ~job:job.Queue.id job.Queue.spec
           (List.filter_map
              (fun c ->
                match (member_int "param" c, Json.member "cell" c) with
                | Some p, Some cell -> Some (p, cell)
                | _ -> None)
              cells))
    | _ -> [])
  | _ -> []

let sse_stream write =
  { Http.s_status = 200;
    s_content_type = "text/event-stream";
    s_headers = [ ("X-Accel-Buffering", "no") ];
    s_write = write }

(* Forward [sub]'s events as SSE frames until the client hangs up, the
   server stops or [last] marks the stream complete; a heartbeat comment
   keeps an idle connection open. *)
let pump ~push ~should_stop ?(last = fun _ -> false) sub =
  let ok = ref true and finished = ref false in
  let last_sent = ref (Unix.gettimeofday ()) in
  while !ok && (not !finished) && not (should_stop ()) do
    match Events.poll sub with
    | [] ->
      Unix.sleepf poll_sleep;
      if Unix.gettimeofday () -. !last_sent > heartbeat_every then begin
        ok := push (Events.sse_comment "heartbeat");
        last_sent := Unix.gettimeofday ()
      end
    | evs ->
      List.iter
        (fun ev ->
          if !ok then begin
            ok := push (Events.sse_frame ev);
            last_sent := Unix.gettimeofday ();
            if last ev then finished := true
          end)
        evs
  done

(* GET /jobs/:id/events.  Subscribe FIRST, then snapshot — an event
   landing in between is delivered twice, never lost.  The stream closes
   itself once it has delivered a terminal state, so [curl -N] exits on
   its own when the job settles. *)
let job_stream t (job : Queue.job) =
  sse_stream @@ fun ~push ~should_stop ->
  let sub = Events.subscribe ~job:job.Queue.id t.events in
  Fun.protect ~finally:(fun () -> Events.unsubscribe t.events sub)
  @@ fun () ->
  let ok = ref (push (Events.sse_event ~typ:"hello" (hello_json job))) in
  List.iter
    (fun row -> if !ok then ok := push (Events.sse_event ~typ:"row" row))
    (replay_rows job);
  if Job_state.terminal job.Queue.state then begin
    if !ok then
      ignore (push (Events.sse_event ~typ:"state" (Queue.state_event job)))
  end
  else if !ok then
    pump ~push ~should_stop sub ~last:(fun ev ->
        ev.Events.typ = "state"
        &&
        match Json.member "state" ev.Events.body with
        | Some (Json.Str ("done" | "failed" | "cancelled")) -> true
        | _ -> false)

(* GET /events — the firehose: every job's events, no replay, runs until
   the client hangs up or the server stops. *)
let firehose_stream t =
  sse_stream @@ fun ~push ~should_stop ->
  let sub = Events.subscribe t.events in
  Fun.protect ~finally:(fun () -> Events.unsubscribe t.events sub)
  @@ fun () ->
  if push (Events.sse_comment "firehose: all jobs") then
    pump ~push ~should_stop sub

let stream_handler t (req : Http.request) =
  if req.Http.meth <> "GET" then None
  else
    match String.split_on_char '/' req.Http.path with
    | [ ""; "events" ] -> Some (firehose_stream t)
    | [ ""; "jobs"; id; "events" ] ->
      (* unknown id falls through to [handler]'s 404 *)
      Option.map (job_stream t) (job_by_id t id)
    | _ -> None
