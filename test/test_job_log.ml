(* The daemon's job log: one transition type (Wal.event), one pure
   Job_state.apply, and the live queue committing each record (apply,
   append, publish) under one lock.

   The model test drives a real daemon — HTTP submit and cancel, take,
   checkpoints, supervised attempts that succeed, fail, hit their
   deadline or drain, restarts, SIGKILLs — which keep every record
   written, may land part-way through the last operation's records and
   may leave a torn line — and power cuts, which lose every record after
   the last durable one — and checks after every step that

   - the live job table, logged cells included, is [fold apply] over
     [Wal.replay], job by job;
   - the ["state"] events are exactly the committed records, in order;
   - every job's first record is its Submitted (log order = commit
     order);
   - no acknowledged job is lost or duplicated, no id is handed out
     twice, and a restart re-admits exactly the live jobs of the
     surviving log, with their attempts and cells;
   - an attempt restores exactly the cells its job's log holds;
   - every done job's table is byte-equal to an uninterrupted run;
   - strike counts never go down, except across a power cut, which may
     forget a strike whose records were not yet synced.

   Two regression tests pin what the old three-writer design got wrong:
   a Submitted written after the job had already finished (the job ran
   again after a restart), and a drained job showing one attempt live
   but none after a restart. *)

open Sinr_expt
open Sinr_obs
open Sinr_serve
module Sq = Sinr_serve.Queue
module Fp = Sinr_chaos.Chaos.Failpoint

let status_of = Test_serve.status_of
let body_of = Test_serve.body_of
let post_jobs = Test_serve.post_jobs

let policy =
  { Supervisor.default_policy with
    Supervisor.base_backoff_s = 0.001;
    max_backoff_s = 0.002 }

let start dir = Daemon.create ~dir ~max_queued:4 ~checkpoint_every:1 ~policy ()
let fold = List.fold_left Job_state.apply Job_state.empty

(* strikes on record: an open attempt is not (yet) one *)
let strikes (j : Sq.job) =
  if j.Sq.state = Sq.Running then j.Sq.attempts - 1 else j.Sq.attempts

(* Every job in the model runs this two-cell grid. *)
let spec_body = {|{"exp":"ack","params":[2,3],"seeds":[1]}|}

let spec =
  match Spec.of_string spec_body with Ok s -> s | Error e -> failwith e

let cell =
  let memo = Hashtbl.create 4 in
  fun p s ->
    match Hashtbl.find_opt memo (p, s) with
    | Some c -> c
    | None ->
      let c =
        match Registry.resolve spec with
        | Ok reg -> reg.Registry.cell ~param:p ~seed:s
        | Error e -> failwith e
      in
      Hashtbl.add memo (p, s) c;
      c

(* The table of an uninterrupted run. *)
let reference =
  lazy
    (let q = Sq.create () in
     match Sq.submit q spec with
     | Error _ -> failwith "reference submit rejected"
     | Ok j ->
       ignore (Sq.take q);
       Runner.run_job q j;
       Option.get j.Sq.table)

(* A job's logged state, its cells as the bytes the log holds them in. *)
let cells_text (s : Job_state.job) =
  Json.to_string_json (Wal.cells_json s.Job_state.cells)

let view (s : Job_state.job) =
  ( s.Job_state.spec,
    Job_state.state_name s.Job_state.state,
    s.Job_state.attempts,
    s.Job_state.quarantined,
    cells_text s )

let views t = List.map (fun (id, s) -> (id, view s)) (Job_state.jobs t)

type op =
  | Submit
  | Cancel of int
  | Take
  | Checkpoint
  | Run of [ `Success | `Failure | `Deadline | `Drain ]
  | Kill of { cut : int; torn : bool }
  | Power_cut
  | Restart

let op_name = function
  | Submit -> "submit"
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Take -> "take"
  | Checkpoint -> "checkpoint"
  | Run `Success -> "success"
  | Run `Failure -> "failure"
  | Run `Deadline -> "deadline"
  | Run `Drain -> "drain"
  | Kill { cut; torn } -> Printf.sprintf "kill cut=%d torn=%b" cut torn
  | Power_cut -> "power cut"
  | Restart -> "restart"

let gen_op =
  QCheck.Gen.(
    frequency
      [ (4, return Submit);
        (2, map (fun i -> Cancel i) (int_bound 7));
        (4, return Take);
        (2, return Checkpoint);
        (2, return (Run `Success));
        (2, return (Run `Failure));
        (1, return (Run `Deadline));
        (1, return (Run `Drain));
        (2, map2 (fun cut torn -> Kill { cut; torn }) (int_bound 1000) bool);
        (1, return Power_cut);
        (1, return Restart) ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_name ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 30) gen_op)

type world = {
  dir : string;
  mutable d : Daemon.t;
  mutable sub : Events.sub;
  mutable base : int; (* WAL records present when [d] started *)
  mutable from : int; (* records before the operation a kill interrupts *)
  mutable fresh : int option; (* the job that operation acknowledged *)
  mutable states : (int * string) list; (* state events seen, newest first *)
  mutable acked : int list; (* ids answered 202, not settled by a restart *)
  mutable ever : int list; (* every id answered 202 *)
  strikes : (int, int) Hashtbl.t;
}

let fail fmt = Printf.ksprintf failwith fmt

let boot w =
  w.d <- start w.dir;
  w.sub <- Events.subscribe (Daemon.events w.d);
  w.base <- List.length (Wal.replay ~dir:w.dir).Wal.records;
  w.from <- w.base;
  w.fresh <- None;
  w.states <- []

(* A restart over [prefix], the records that survived: exactly the live
   jobs come back, as Queued with their attempts (an open attempt is a
   strike), or parked when those exhaust the retry budget. *)
let check_recovery w prefix =
  let expected = fold prefix in
  let q = Daemon.queue w.d in
  List.iter
    (fun (id, (s : Job_state.job)) ->
      let live = s.Job_state.spec <> None && not (Job_state.terminal s.Job_state.state) in
      match (Sq.find q id, live) with
      | Some j, true ->
        let want =
          if s.Job_state.attempts > policy.Supervisor.max_retries then Sq.Failed
          else Sq.Queued
        in
        if j.Sq.state <> want || j.Sq.attempts <> s.Job_state.attempts then
          fail "job %d recovered as %s/%d, want %s/%d" id
            (Sq.state_name j.Sq.state) j.Sq.attempts (Sq.state_name want)
            s.Job_state.attempts;
        let live = Option.map cells_text (Job_state.find (Sq.log q) id) in
        if want = Sq.Queued && live <> Some (cells_text s) then
          fail "job %d recovered without the cells its log holds" id
      | None, false -> ()
      | Some _, false -> fail "job %d re-admitted after it settled" id
      | None, true -> fail "live job %d lost at restart" id)
    (Job_state.jobs expected);
  List.iter
    (fun id ->
      if Job_state.find expected id = None then
        fail "acknowledged job %d is not in the surviving log" id)
    w.acked;
  (* settled jobs are not re-admitted; the rest must stay *)
  w.acked <- List.filter (fun id -> Sq.find q id <> None) w.acked

let check w =
  let q = Daemon.queue w.d in
  let records = (Wal.replay ~dir:w.dir).Wal.records in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (r : Wal.record) ->
      if not (Hashtbl.mem seen r.Wal.job) then begin
        Hashtbl.add seen r.Wal.job ();
        match r.Wal.ev with
        | Wal.Submitted _ -> ()
        | _ -> fail "job %d: %s before its Submitted" r.Wal.job (Wal.encode r)
      end)
    records;
  let folded = fold records in
  if views (Sq.log q) <> views folded then
    fail "the queue's table is not the fold of its log";
  let jobs = Sq.jobs q in
  List.iter
    (fun (j : Sq.job) ->
      match Job_state.find folded j.Sq.id with
      | Some s
        when s.Job_state.state = j.Sq.state
             && s.Job_state.attempts = j.Sq.attempts
             && s.Job_state.quarantined = j.Sq.quarantined -> ()
      | _ -> fail "job %d: live view differs from the log" j.Sq.id)
    jobs;
  let ids = List.map (fun (j : Sq.job) -> j.Sq.id) jobs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    fail "duplicate job ids";
  List.iter
    (fun id -> if not (List.mem id ids) then fail "acknowledged job %d lost" id)
    w.acked;
  List.iter
    (fun (j : Sq.job) ->
      let s = strikes j in
      (match Hashtbl.find_opt w.strikes j.Sq.id with
       | Some prev when prev > s ->
         fail "job %d strikes went down: %d -> %d" j.Sq.id prev s
       | _ -> ());
      Hashtbl.replace w.strikes j.Sq.id s)
    jobs;
  List.iter
    (fun (j : Sq.job) ->
      match (j.Sq.state, j.Sq.table) with
      | Sq.Done, Some t when t <> Lazy.force reference ->
        fail "job %d: table differs from an uninterrupted run" j.Sq.id
      | _ -> ())
    jobs;
  (* one "state" event per committed record but Cells, carrying
     the state that record produced *)
  List.iter
    (fun (e : Events.event) ->
      if e.Events.typ = "state" then
        match Json.member "state" e.Events.body with
        | Some (Json.Str st) -> w.states <- (e.Events.job, st) :: w.states
        | _ -> fail "state event without a state")
    (Events.poll w.sub);
  let _, _, want =
    List.fold_left
      (fun (i, t, acc) (r : Wal.record) ->
        let t = Job_state.apply t r in
        match (r.Wal.ev, Job_state.find t r.Wal.job) with
        | Wal.Cells _, _ | _, None -> (i + 1, t, acc)
        | _, Some s when i >= w.base ->
          (i + 1, t, (r.Wal.job, Job_state.state_name s.Job_state.state) :: acc)
        | _ -> (i + 1, t, acc))
      (0, Job_state.empty, []) records
  in
  if want <> w.states then fail "state events differ from the committed records"

let running w =
  List.find_opt
    (fun (j : Sq.job) -> j.Sq.state = Sq.Running)
    (Sq.jobs (Daemon.queue w.d))

let read_lines path =
  List.filter (fun l -> l <> "")
    (String.split_on_char '\n' (Test_serve.read_file path))

let step w op =
  let q = Daemon.queue w.d in
  let handle = Http.handle ~handler:(Daemon.handler w.d) in
  match op with
  | Submit -> (
    let r = handle (post_jobs spec_body) in
    match status_of r with
    | Some 202 -> (
      match Option.bind (Json.member "id" (Json.parse (body_of r))) Json.to_int with
      | Some id ->
        if List.mem id w.ever then fail "job id %d handed out twice" id;
        w.ever <- id :: w.ever;
        w.acked <- id :: w.acked;
        w.fresh <- Some id
      | None -> fail "202 without an id")
    | Some 429 -> ()
    | _ -> fail "submit answered %s" r)
  | Cancel i -> (
    match Sq.jobs q with
    | [] -> ()
    | jobs ->
      let j = List.nth jobs (i mod List.length jobs) in
      match
        status_of (handle (Printf.sprintf "DELETE /jobs/%d HTTP/1.1\r\n\r\n" j.Sq.id))
      with
      | Some (200 | 202 | 409) -> ()
      | _ -> fail "cancel of job %d answered oddly" j.Sq.id)
  | Take -> ignore (Sq.take ~now:infinity q)
  | Checkpoint ->
    (* the running attempt finishes its next cell *)
    Option.iter
      (fun (j : Sq.job) ->
        let c = Runner.logged_cursor q j in
        match Sweep.remaining c with
        | (p, s) :: _ ->
          Sq.progress q j ~cells_done:(Sweep.completed c + 1) [ (p, s, cell p s) ]
        | [] -> ())
      (running w)
  | Run outcome ->
    Option.iter
      (fun (j : Sq.job) ->
        let tick = ref 0. in
        let sup =
          match outcome with
          | `Deadline ->
            (* the clock ticks once per read: the deadline passes after
               the attempt's first cell *)
            Supervisor.create
              ~policy:{ policy with Supervisor.deadline_s = 2.5 }
              ~now:(fun () -> tick := !tick +. 1.; !tick)
              ()
          | _ -> Supervisor.create ~policy ()
        in
        let logged = Sweep.completed (Runner.logged_cursor q j) in
        if outcome = `Failure then Fp.arm "serve.cell" Fp.Always;
        (* a drain lands after the attempt's first cell *)
        let polls = ref 0 in
        Fun.protect ~finally:Fp.clear (fun () ->
            Supervisor.run sup ~checkpoint_every:1
              ~should_stop:(fun () ->
                incr polls;
                outcome = `Drain && !polls >= 2)
              ~dir:w.dir q j);
        if j.Sq.restored <> logged then
          fail "job %d restored %d cells, its log holds %d" j.Sq.id
            j.Sq.restored logged)
      (running w)
  | Kill { cut; torn } ->
    (* the process dies: nothing in memory survives; the OS closes its
       descriptor *)
    Daemon.close w.d;
    let path = Wal.path ~dir:w.dir in
    let lines = read_lines path in
    (* SIGKILL keeps every record written; it may land part-way through
       the last operation's records *)
    let keep = w.from + (cut mod (List.length lines - w.from + 1)) in
    let kept = List.filteri (fun i _ -> i < keep) lines in
    let torn_line =
      if torn then
        let l = Wal.encode { Wal.job = 1; ev = Wal.Completed } in
        String.sub l 0 (String.length l / 2)
      else ""
    in
    let oc = open_out_bin path in
    List.iter (fun l -> output_string oc (l ^ "\n")) kept;
    output_string oc torn_line;
    close_out oc;
    let prefix = List.filter_map Wal.decode kept in
    (* a submit cut off before its Submitted record never answered 202 *)
    let answered id =
      Some id <> w.fresh || Job_state.find (fold prefix) id <> None
    in
    w.acked <- List.filter answered w.acked;
    w.ever <- List.filter answered w.ever;
    boot w;
    if torn && Daemon.wal_recovery w.d <> `Torn_tail then
      fail "torn tail not reported";
    check_recovery w prefix
  | Power_cut ->
    (* the host loses power: what survives is the log up to its last
       durable record (an fsync covers every write before it), plus the
       compacted records, which were synced when the daemon started *)
    Daemon.close w.d;
    let path = Wal.path ~dir:w.dir in
    let lines = read_lines path in
    let durable l =
      match Wal.decode l with
      | Some
          { Wal.ev =
              Wal.Submitted _ | Wal.Completed | Wal.Cancelled | Wal.Failed _
              | Wal.Quarantined _;
            _ } -> true
      | _ -> false
    in
    let keep =
      List.fold_left max w.base
        (List.mapi (fun i l -> if durable l then i + 1 else 0) lines)
    in
    let kept = List.filteri (fun i _ -> i < keep) lines in
    let oc = open_out_bin path in
    List.iter (fun l -> output_string oc (l ^ "\n")) kept;
    close_out oc;
    boot w;
    (* every acknowledged job survives; attempts are the durable
       prefix's, so a strike whose records were cut is forgotten *)
    check_recovery w (List.filter_map Wal.decode kept);
    Hashtbl.reset w.strikes
  | Restart ->
    Daemon.close w.d;
    let prefix = (Wal.replay ~dir:w.dir).Wal.records in
    boot w;
    check_recovery w prefix

let run_ops ops =
  let dir = Test_serve.fresh_dir () in
  let d = start dir in
  let w =
    { dir;
      d;
      sub = Events.subscribe (Daemon.events d);
      base = 0;
      from = 0;
      fresh = None;
      states = [];
      acked = [];
      ever = [];
      strikes = Hashtbl.create 16 }
  in
  Fun.protect ~finally:(fun () -> Daemon.close w.d) @@ fun () ->
  List.iteri
    (fun i op ->
      (match op with
       | Kill _ | Restart -> ()
       | _ ->
         w.from <- List.length (Wal.replay ~dir:w.dir).Wal.records;
         w.fresh <- None);
      (try step w op; check w
       with Failure msg -> fail "step %d (%s): %s" i (op_name op) msg))
    ops;
  true

let prop_job_log =
  QCheck.Test.make ~name:"job log: live table = fold apply over replay"
    ~count:100 arb_ops run_ops

(* ---------------- regressions ---------------------------------------- *)

(* The old daemon committed a job as Queued, released the queue mutex and
   only then appended Submitted, while the step loop could take, run and
   complete the job in between; replay then saw a late Submitted and ran
   the finished job again. *)
let test_late_submitted_not_resurrected =
  Test_serve.with_registry (fun () ->
      let dir = Test_serve.fresh_dir () in
      let spec = Test_serve.spec_ack [ 2 ] [ 1 ] in
      let w = Wal.open_ ~dir () in
      List.iter (Wal.append w)
        [ { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 1; ev = Wal.Cells [ (2, 1, Json.int 7) ] };
          { Wal.job = 1; ev = Wal.Completed };
          { Wal.job = 1; ev = Wal.Submitted spec } ];
      Wal.close w;
      let d = Daemon.create ~dir () in
      Alcotest.(check int) "nothing re-admitted" 0 (Daemon.recovered d);
      Alcotest.(check bool) "the finished job stays gone" true
        (Sq.find (Daemon.queue d) 1 = None);
      Alcotest.(check bool) "step finds no work" false (Daemon.step d);
      Daemon.close d;
      (* live: the admission is on the log before the job can start *)
      let dir = Test_serve.fresh_dir () in
      let d = Daemon.create ~dir () in
      let handle = Http.handle ~handler:(Daemon.handler d) in
      Alcotest.(check (option int)) "submit" (Some 202)
        (status_of (handle (post_jobs spec_body)));
      Alcotest.(check bool) "step ran the job" true (Daemon.step d);
      Daemon.close d;
      match (Wal.replay ~dir).Wal.records with
      | { Wal.job = 1; ev = Wal.Submitted _ }
        :: { Wal.job = 1; ev = Wal.Started 1 } :: _ -> ()
      | rs ->
        Alcotest.failf "log starts %s"
          (String.concat " | " (List.map Wal.encode rs)))

(* A drain withdraws the attempt it interrupted, live and after a
   restart alike. *)
let test_drained_attempts_survive_restart =
  Test_serve.with_registry (fun () ->
      let dir = Test_serve.fresh_dir () in
      let d = Daemon.create ~dir ~checkpoint_every:1 () in
      let handle = Http.handle ~handler:(Daemon.handler d) in
      Alcotest.(check (option int)) "submit" (Some 202)
        (status_of
           (handle (post_jobs {|{"exp":"ack","params":[2,3],"seeds":[1]}|})));
      let q = Daemon.queue d in
      let job =
        match Sq.take q with Some j -> j | None -> Alcotest.fail "take failed"
      in
      Supervisor.run (Supervisor.create ()) ~checkpoint_every:1
        ~should_stop:(fun () -> true) ~dir q job;
      Alcotest.(check bool) "drained back to queued" true
        (job.Sq.state = Sq.Queued);
      let attempts h =
        Option.bind
          (Json.member "attempts"
             (Json.parse (body_of (h "GET /jobs/1 HTTP/1.1\r\n\r\n"))))
          Json.to_int
      in
      let live = attempts handle in
      Daemon.close d;
      let d2 = Daemon.create ~dir ~checkpoint_every:1 () in
      let after = attempts (Http.handle ~handler:(Daemon.handler d2)) in
      Alcotest.(check (option int)) "a drain is not an attempt on record"
        (Some 0) live;
      Alcotest.(check (option int)) "restart agrees with the live view" live
        after;
      Daemon.close d2)

(* A log written before cells went into it carries a bare progress
   count; it replays as an empty [Cells] record, not as mid-log
   corruption, and the job resumes from nothing. *)
let test_older_log_replays =
  Test_serve.with_registry (fun () ->
      let dir = Test_serve.fresh_dir () in
      let spec = Test_serve.spec_ack [ 2 ] [ 1 ] in
      let line r = Wal.encode { Wal.job = 1; ev = r } ^ "\n" in
      Test_serve.write_raw (Wal.path ~dir)
        (String.concat ""
           [ line (Wal.Submitted spec);
             {|3e050790 {"wal":1,"job":1,"ev":"checkpointed","cells":1}|} ^ "\n";
             line (Wal.Started 1) ]);
      let d = Daemon.create ~dir () in
      Fun.protect ~finally:(fun () -> Daemon.close d) @@ fun () ->
      Alcotest.(check bool) "replays clean" true (Daemon.wal_recovery d = `Clean);
      Alcotest.(check int) "job re-admitted" 1 (Daemon.recovered d);
      Alcotest.(check bool) "step ran the job" true (Daemon.step d);
      match Sq.find (Daemon.queue d) 1 with
      | Some j ->
        Alcotest.(check int) "no cells restored" 0 j.Sq.restored;
        Alcotest.(check bool) "done" true (j.Sq.state = Sq.Done)
      | None -> Alcotest.fail "job lost")

let suite =
  [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |]) prop_job_log;
    Alcotest.test_case "late Submitted does not resurrect a job" `Quick
      test_late_submitted_not_resurrected;
    Alcotest.test_case "drained attempts equal across a restart" `Quick
      test_drained_attempts_survive_restart;
    Alcotest.test_case "older log's progress count replays" `Quick
      test_older_log_replays ]
