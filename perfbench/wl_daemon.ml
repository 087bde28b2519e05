(* daemon-chaos: the job a user of `sinr_sim serve` waits on.  An
   in-process Serve.Daemon on a fresh directory, configured as the serve
   command configures itself (metrics on, flight recorder configured and
   armed), driven by one closed-loop client: POST a chaos job (jam_pct
   {0, 50} x fresh seeds) through Http.handle, step the daemon until the
   job is done, GET its table, repeat.

   Four jobs in five are small (2 seeds, 4 cells, one checkpoint); every
   fifth is a wider sweep (8 seeds, 16 cells, four checkpoints).  The wide
   jobs are the slowest fifth, so task_s.p90 falls in the middle of them
   and reads as the typical wide job's latency.  Over equal jobs it read
   whichever jobs ran while the host was busy, and spread by up to a
   quarter between runs.

   The cells are small (n = 36), so queue, WAL, checkpoint and recorder
   work weigh heavily; jamming exercises the perturbed kernel and every
   cell runs Mac_driver.with_retry. *)

open Sinr_obs
open Sinr_serve
open Bench_util

let params = [ 0; 50 ]
let setup_reps = 15
let prefix = 100
let recorder_jobs = 20

let work_root = Filename.concat "perfbench" "_work"

let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let wide_every = 5
let wide_seeds = 8

let job_seeds ~seed j =
  let k = Sinr_geom.Rng.int (Sinr_geom.Rng.split (Sinr_geom.Rng.create seed) ~key:j) 1_000_000 in
  let m = if j mod wide_every = wide_every - 1 then wide_seeds else 2 in
  List.init m (fun i -> (wide_seeds * k) + i + 1)

let body ~seed j =
  Printf.sprintf {|{"exp":"chaos","params":[%s],"seeds":[%s],"jobs":1}|}
    (String.concat "," (List.map string_of_int params))
    (String.concat "," (List.map string_of_int (job_seeds ~seed j)))

let request meth path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" meth path
    (String.length body) body

(* Status code and body of a raw HTTP/1.1 response. *)
let parse_response raw =
  let status = try Scanf.sscanf raw "HTTP/1.1 %d" Fun.id with _ -> 0 in
  let body =
    let rec find i =
      if i + 4 > String.length raw then ""
      else if String.sub raw i 4 = "\r\n\r\n" then
        String.sub raw (i + 4) (String.length raw - i - 4)
      else find (i + 1)
    in
    find 0
  in
  (status, body)

type daemon = { d : Daemon.t; handle : string -> string }

(* The serve command's process configuration, then a daemon on a fresh
   directory. *)
let create_daemon dir =
  mkdir dir;
  Metrics.reset ();
  Metrics.set_enabled true;
  Recorder.clear ();
  Recorder.configure ~dir ();
  Recorder.set_enabled true;
  let d =
    Daemon.create ~dir ~wal_dir:dir ~max_queued:8 ~checkpoint_every:4
      ~policy:Supervisor.default_policy ()
  in
  { d; handle = Http.handle ~handler:(Daemon.handler d) }

type job = { ok : bool; slots : int; table : string }

(* The table is complete when every (param, seed) cell is present and
   reports its simulated slots. *)
let check_table ~seed j table =
  match Json.parse_opt table with
  | None -> None
  | Some t -> (
    match Json.member "rows" t with
    | Some (Json.List rows) when List.length rows = List.length params ->
      let nseeds = List.length (job_seeds ~seed j) in
      List.fold_left
        (fun acc row ->
          match (acc, Json.member "cells" row) with
          | Some s, Some (Json.List cells) when List.length cells = nseeds ->
            List.fold_left
              (fun acc c ->
                match (acc, Option.bind (Json.member "slots" c) Json.to_int) with
                | Some s, Some k -> Some (s + k)
                | _ -> None)
              (Some s) cells
          | _ -> None)
        (Some 0) rows
    | _ -> None)

type probe = { mutable submit : float; mutable step : float }

let run_job ?probe dm ~seed j =
  let (status, resp), s_submit = timed (fun () -> parse_response (dm.handle (request "POST" "/jobs" (body ~seed j)))) in
  let id =
    if status <> 202 then None
    else Option.bind (Json.parse_opt resp) (fun r -> Option.bind (Json.member "id" r) Json.to_int)
  in
  match id with
  | None -> { ok = false; slots = 0; table = "" }
  | Some id ->
    let q = Daemon.queue dm.d in
    let terminal () =
      match Queue.find q id with
      | Some { Queue.state = Queue.Done | Queue.Failed | Queue.Cancelled; _ } | None -> true
      | Some _ -> false
    in
    let s_step = ref 0. in
    let stalled = ref false in
    while not (terminal () || !stalled) do
      let progressed, s = timed (fun () -> Daemon.step dm.d) in
      s_step := !s_step +. s;
      if not progressed then stalled := true
    done;
    let done_ = match Queue.find q id with Some { Queue.state = Queue.Done; _ } -> true | _ -> false in
    let status, table = parse_response (dm.handle (request "GET" (Printf.sprintf "/jobs/%d/table" id) "")) in
    Option.iter
      (fun p ->
        p.submit <- p.submit +. s_submit;
        p.step <- p.step +. !s_step)
      probe;
    (match (done_ && status = 200, check_table ~seed j table) with
     | true, Some slots -> { ok = true; slots; table }
     | _ -> { ok = false; slots = 0; table })

let note_job dg j r = note dg "job %d ok %b bytes %d table %s" j r.ok (String.length r.table) (Digest.to_hex (Digest.string r.table))

let guard_layers () =
  guard (counter "engine.perturbed_slots" > 0.) "daemon-chaos: no perturbed slots";
  guard (Span.entries () <> [] || Span.dropped_count () > 0) "daemon-chaos: no recorder entries"

let with_workdir f =
  mkdir work_root;
  let root = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir root;
  Fun.protect ~finally:(fun () -> Recorder.set_enabled false; Metrics.set_enabled false; remove_tree root) (fun () -> f root)

(* Set-up is what a user waits for before a fresh daemon's first table:
   the serve configuration, Daemon.create on a fresh directory and one
   small warm-up job (seeds outside the measured jobs'), the median over
   several fresh daemons. *)
let setup ~seed root =
  let last = ref None in
  let times =
    List.init setup_reps (fun k ->
        Option.iter (fun dm -> Daemon.close dm.d) !last;
        let dm, s =
          timed (fun () ->
              let dm = create_daemon (Filename.concat root (Printf.sprintf "setup-%d" k)) in
              let r = run_job dm ~seed (1_000_000 + (wide_every * k)) in
              guard r.ok "daemon-chaos: warm-up job %d failed" k;
              dm)
        in
        last := Some dm;
        s)
  in
  (Option.get !last, median times)

let run ~seed ~seconds =
  with_workdir @@ fun root ->
  let dm, setup_s = setup ~seed root in
  let dg = digest () in
  let times = ref [] and slots = ref 0 and failed = ref 0 in
  let t0 = now () in
  let j = ref 0 in
  while !j < prefix || now () -. t0 < seconds do
    let r, s = timed (fun () -> run_job dm ~seed !j) in
    times := s :: !times;
    slots := !slots + r.slots;
    if not r.ok then incr failed;
    if !j < prefix then note_job dg !j r;
    incr j
  done;
  let wall = now () -. t0 in
  guard_layers ();
  Daemon.close dm.d;
  Printf.printf "daemon-chaos: %d jobs, %d failed, %d cell slots in %.2f s\n" !j !failed !slots wall;
  Printf.printf "digest %s (first %d jobs)\n" (digest_hex dg) prefix;
  { correct = true;
    attempted = !j;
    failed = !failed;
    metrics =
      [ ("slots_per_s", float_of_int !slots /. wall);
        ("task_s.p50", quantile !times 0.5);
        ("task_s.p90", quantile !times 0.9);
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ()) ] }

(* ---------------- traced run ---------------- *)

let chaos = match Registry.find "chaos" with Some e -> e | None -> failwith "no chaos experiment"

(* The prefix jobs' cells, run by calling the registry's cell directly;
   ring entries are counted outside the timed calls. *)
let direct_cells ~seed ~jobs =
  let entries = ref 0 and cells = ref 0 and total = ref 0. in
  for j = 0 to jobs - 1 do
    List.iter
      (fun param ->
        List.iter
          (fun s ->
            Recorder.clear ();
            let (), dt = timed (fun () -> ignore (chaos.Registry.cell ~param ~seed:s)) in
            total := !total +. dt;
            entries := !entries + List.length (Span.entries ()) + Span.dropped_count ();
            incr cells)
          (job_seeds ~seed j))
      params
  done;
  (!total, ratio (float_of_int !entries) (float_of_int !cells))

let run_traced ~seed =
  with_workdir @@ fun root ->
  let dg0 = digest () in
  let dm0 = create_daemon (Filename.concat root "untraced") in
  let (), wall0 =
    timed (fun () ->
        for j = 0 to prefix - 1 do
          note_job dg0 j (run_job dm0 ~seed j)
        done)
  in
  guard_layers ();
  Daemon.close dm0.d;
  let dg1 = digest () in
  let failed = ref 0 in
  let p = { submit = 0.; step = 0. } in
  let dm1 = create_daemon (Filename.concat root "traced") in
  let wall1, minor, tele, split, in_daemon_cells =
    Profile.with_enabled (fun () ->
        let m0 = Gc.minor_words () in
        let (), wall =
          timed (fun () ->
              for j = 0 to prefix - 1 do
                let r = run_job ~probe:p dm1 ~seed j in
                if not r.ok then incr failed;
                note_job dg1 j r
              done)
        in
        let minor = Gc.minor_words () -. m0 in
        guard_layers ();
        (* the supervisor's own per-cell timer, around the same calls *)
        let cells = Metrics.histogram_sum (Metrics.histogram "serve.cell.seconds") in
        (wall, minor, telemetry_metrics (), engine_split (), cells))
  in
  Daemon.close dm1.d;
  (* the same cells, called directly under the same process flags *)
  let cells_s, _ = Profile.with_enabled (fun () -> direct_cells ~seed ~jobs:prefix) in
  Recorder.set_enabled false;
  let off_s, _ = direct_cells ~seed ~jobs:recorder_jobs in
  Recorder.set_enabled true;
  let on_s, ring_entries = direct_cells ~seed ~jobs:recorder_jobs in
  let d0 = digest_hex dg0 and d1 = digest_hex dg1 in
  Printf.printf "digest untraced %s\ndigest traced   %s\n" d0 d1;
  let t k = List.assoc k tele in
  let engine_step = t "engine.step_s" in
  let overhead = Float.max 0. (p.step -. in_daemon_cells) in
  let client = Float.max 0. (wall1 -. p.submit -. p.step) in
  let cells_rest = Float.max 0. (in_daemon_cells -. engine_step) in
  let share_sum =
    print_shares ~wall:wall1
      ([ ("serve.submit_s", p.submit); ("serve.overhead_s", overhead);
         ("serve.client_s", client); ("serve.cells_rest_s", cells_rest) ]
      @ split)
  in
  { correct = d0 = d1 && Float.abs (share_sum -. 100.) <= 5.;
    attempted = prefix;
    failed = !failed;
    metrics =
      [ ("serve.submit_s", p.submit);
        ("serve.cells_s", cells_s);
        ("serve.overhead_s", overhead);
        ("serve.client_s", client);
        ("serve.cells_rest_s", cells_rest);
        ("engine.minor_words_per_slot", ratio minor (t "engine.slots"));
        ("obs.recorder_ratio", ratio on_s off_s);
        ("obs.ring_entries", ring_entries);
        ("obs.trace_overhead", ratio wall1 wall0);
        ("trace.share_sum", share_sum) ]
      @ tele }
