(* Tests for the sweep daemon (lib/serve): spec parsing, the resumable
   sweep cursor, queue admission/cancel, checkpoint/resume bit-identity,
   the /jobs HTTP surface, and the hardened request handling under it. *)

open Sinr_expt
open Sinr_obs
open Sinr_serve
module Sq = Sinr_serve.Queue

(* Clean, enabled registry per case; leave it disabled for the rest of the
   run (same discipline as test_obs). *)
let with_registry f () =
  Metrics.reset_for_tests ();
  Metrics.set_enabled true;
  Fun.protect ~finally:Metrics.reset_for_tests f

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sinr_serve_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- spec ---------------- *)

let test_spec_roundtrip () =
  let s =
    match Spec.of_string {|{"exp":"ack","params":[4,8],"seeds":[1,2,3]}|} with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check string) "exp" "ack" s.Spec.exp;
  Alcotest.(check (list int)) "params" [ 4; 8 ] s.Spec.params;
  Alcotest.(check (list int)) "seeds" [ 1; 2; 3 ] s.Spec.seeds;
  Alcotest.(check int) "cells" 6 (Spec.cells s);
  Alcotest.(check bool) "validates" true (Spec.validate s = Ok ());
  (* wire round trip *)
  (match Spec.of_json (Spec.to_json s) with
   | Ok s' -> Alcotest.(check bool) "roundtrip equal" true (s = s')
   | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  (* optional fields survive *)
  match
    Spec.of_string
      {|{"exp":"ack","params":[4],"seeds":[1],"jobs":2,"tag":"t-1"}|}
  with
  | Ok s ->
    Alcotest.(check (option int)) "jobs" (Some 2) s.Spec.jobs;
    Alcotest.(check (option string)) "tag" (Some "t-1") s.Spec.tag
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_spec_rejections () =
  let err input =
    match Spec.of_string input with
    | Error _ -> ()
    | Ok s -> (
      match Spec.validate s with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted %s" input)
  in
  err {|not json|};
  err {|[1,2]|};
  err {|{"params":[1],"seeds":[1]}|};                       (* no exp *)
  err {|{"exp":"ack","params":[1],"seeds":[1],"bogus":1}|}; (* unknown *)
  err {|{"exp":"ack","params":"x","seeds":[1]}|};
  err {|{"exp":"ack","params":[],"seeds":[1]}|};            (* empty axis *)
  err {|{"exp":"ack","params":[1,1],"seeds":[1]}|};         (* duplicate *)
  err {|{"exp":"ack","params":[1],"seeds":[1],"jobs":0}|};
  err {|{"exp":"ack","params":[1],"seeds":[1],"tag":"../x"}|};
  (* grid cap *)
  let big = List.init 40 (fun i -> i + 1) in
  let s =
    { Spec.exp = "ack"; params = big; seeds = big; jobs = None; tag = None }
  in
  Alcotest.(check bool) "grid cap enforced" true (Spec.validate s <> Ok ())

let test_registry_resolve () =
  let spec params exp =
    { Spec.exp; params; seeds = [ 1 ]; jobs = None; tag = None }
  in
  (match Registry.resolve (spec [ 4 ] "ack") with
   | Ok r -> Alcotest.(check string) "param name" "delta" r.Registry.param_name
   | Error e -> Alcotest.failf "ack should resolve: %s" e);
  (match Registry.resolve (spec [ 4 ] "nope") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown experiment accepted");
  match Registry.resolve (spec [ 0 ] "ack") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range delta accepted"

(* ---------------- sweep cursor ---------------- *)

let test_cursor_basics () =
  let c = Sweep.cursor ~params:[ 10; 20 ] ~seeds:[ 1; 2; 3 ] in
  Alcotest.(check int) "total" 6 (Sweep.total c);
  Alcotest.(check int) "fresh is empty" 0 (Sweep.completed c);
  Alcotest.(check bool) "record" true (Sweep.record c 20 2 42);
  Alcotest.(check bool) "double record refused" false (Sweep.record c 20 2 7);
  Alcotest.(check bool) "foreign param refused" false (Sweep.record c 30 1 0);
  Alcotest.(check bool) "foreign seed refused" false (Sweep.record c 10 9 0);
  Alcotest.(check int) "one cell" 1 (Sweep.completed c);
  Alcotest.(check int) "remaining" 5 (List.length (Sweep.remaining c));
  Alcotest.check_raises "results on incomplete"
    (Invalid_argument "Sweep.results: grid incomplete (1/6 cells)") (fun () ->
      ignore (Sweep.results c));
  (* canonical order: params outer, seeds inner *)
  Alcotest.(check (list (pair int int)))
    "remaining order"
    [ (10, 1); (10, 2); (10, 3); (20, 1); (20, 3) ]
    (Sweep.remaining c)

let test_cursor_matches_grid () =
  let f p s = (p * 1000) + s in
  let params = [ 3; 1; 2 ] and seeds = [ 5; 4 ] in
  let via_grid = Sweep.grid ~jobs:1 ~params ~seeds f in
  (* chunked, stopped and resumed: same table *)
  let c = Sweep.cursor ~params ~seeds in
  let polls = ref 0 in
  (match
     Sweep.run_cursor ~jobs:1 ~chunk:1
       ~should_stop:(fun () ->
         incr polls;
         !polls > 2)
       c f
   with
   | `Stopped -> ()
   | `Complete -> Alcotest.fail "should have stopped");
  Alcotest.(check int) "stopped after 2 cells" 2 (Sweep.completed c);
  (match Sweep.run_cursor ~jobs:1 ~chunk:2 c f with
   | `Complete -> ()
   | `Stopped -> Alcotest.fail "no stop installed");
  Alcotest.(check bool) "resumed table equals grid" true
    (Sweep.results c = via_grid)

(* ---------------- queue ---------------- *)

let spec_ack ?jobs ?tag params seeds =
  { Spec.exp = "ack"; params; seeds; jobs; tag }

let test_queue_backpressure =
  with_registry (fun () ->
      let q = Sq.create ~max_queued:2 () in
      let ok s = match Sq.submit q s with
        | Ok j -> j
        | Error _ -> Alcotest.fail "unexpected rejection"
      in
      let j1 = ok (spec_ack [ 2 ] [ 1 ]) in
      let _j2 = ok (spec_ack [ 3 ] [ 1 ]) in
      Alcotest.(check int) "depth" 2 (Sq.depth q);
      (match Sq.submit q (spec_ack [ 4 ] [ 1 ]) with
       | Error (`Backpressure d) -> Alcotest.(check int) "depth seen" 2 d
       | Ok _ -> Alcotest.fail "cap not enforced");
      Alcotest.(check (option int)) "rejected metric" (Some 1)
        (Metrics.counter_peek "serve.jobs.rejected");
      Alcotest.(check (option int)) "submitted metric" (Some 2)
        (Metrics.counter_peek "serve.jobs.submitted");
      (* a running job still counts toward depth *)
      (match Sq.take q with
       | Some j -> Alcotest.(check int) "oldest first" j1.Sq.id j.Sq.id
       | None -> Alcotest.fail "take failed");
      Alcotest.(check int) "running counts" 2 (Sq.depth q);
      (match Sq.submit q (spec_ack [ 5 ] [ 1 ]) with
       | Error (`Backpressure _) -> ()
       | Ok _ -> Alcotest.fail "running job must count toward the cap");
      (* finishing frees a slot *)
      Sq.finish q j1 (`Done Json.Null);
      Alcotest.(check int) "done leaves depth" 1 (Sq.depth q);
      match Sq.submit q (spec_ack [ 6 ] [ 1 ]) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "slot not freed")

let test_queue_cancel () =
  let q = Sq.create () in
  let j =
    match Sq.submit q (spec_ack [ 2 ] [ 1 ]) with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit failed"
  in
  Alcotest.(check bool) "unknown id" true (Sq.cancel q 99 = `Not_found);
  Alcotest.(check bool) "queued cancels now" true
    (Sq.cancel q j.Sq.id = `Cancelled);
  Alcotest.(check bool) "cancel is idempotent" true
    (Sq.cancel q j.Sq.id = `Already_cancelled);
  (* a Done/Failed job is a real conflict, not idempotent success *)
  let jd =
    match Sq.submit q (spec_ack [ 4 ] [ 1 ]) with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit failed"
  in
  ignore (Sq.take q);
  Sq.finish q jd (`Done Json.Null);
  Alcotest.(check bool) "done conflicts" true
    (Sq.cancel q jd.Sq.id = `Already_finished);
  (* running: flag only, runner confirms *)
  let j2 =
    match Sq.submit q (spec_ack [ 3 ] [ 1 ]) with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit failed"
  in
  ignore (Sq.take q);
  Alcotest.(check bool) "running gets flagged" true
    (Sq.cancel q j2.Sq.id = `Cancelling);
  Alcotest.(check bool) "flag set" true (Atomic.get j2.Sq.cancel);
  Alcotest.(check bool) "still running" true (j2.Sq.state = Sq.Running)

(* ---------------- runner: checkpoint/resume bit-identity ------------- *)

(* One small but real grid: 2 deltas x 2 seeds of the ack experiment. *)
let bitid_spec ?jobs ?tag () = spec_ack ?jobs ?tag [ 2; 3 ] [ 1; 2 ]

(* Every cell the [Cells] records on [dir]'s WAL hold, in log order. *)
let logged_cells dir =
  List.concat_map
    (fun (r : Wal.record) -> match r.Wal.ev with Wal.Cells cs -> cs | _ -> [])
    (Wal.replay ~dir).Wal.records

let logged_text dir = Json.to_string_json (Wal.cells_json (logged_cells dir))

(* A queue committing to a WAL in a fresh directory. *)
let logged_queue () =
  let dir = fresh_dir () in
  let wal = Wal.open_ ~dir () in
  (dir, wal, Sq.create ~wal ())

(* Supervised, so a stop is a drain that requeues the job. *)
let run_to_done ?should_stop ~dir q job =
  Supervisor.run (Supervisor.create ()) ~checkpoint_every:1 ?should_stop ~dir
    q job

let table_string (job : Sq.job) =
  match job.Sq.table with
  | Some t -> t
  | None -> Alcotest.failf "job %d has no table (%s)" job.Sq.id
              (Sq.state_name job.Sq.state)

let test_resume_bit_identical () =
  (* uninterrupted reference run *)
  let dir1, wal1, q1 = logged_queue () in
  let j1 =
    match Sq.submit q1 (bitid_spec ~jobs:1 ()) with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit failed"
  in
  ignore (Sq.take q1);
  run_to_done ~dir:dir1 q1 j1;
  Alcotest.(check bool) "reference done" true (j1.Sq.state = Sq.Done);
  let t1 = table_string j1 in
  Wal.close wal1;

  (* killed after one cell, then resumed *)
  let dir2, wal2, q2 = logged_queue () in
  let j2 =
    match Sq.submit q2 (bitid_spec ~jobs:1 ()) with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit failed"
  in
  ignore (Sq.take q2);
  let polls = ref 0 in
  run_to_done
    ~should_stop:(fun () ->
      incr polls;
      !polls >= 2)
    ~dir:dir2 q2 j2;
  Alcotest.(check bool) "drained job requeued" true (j2.Sq.state = Sq.Queued);
  Alcotest.(check int) "one cell before the kill" 1 j2.Sq.cells_done;
  (* the next process: take it again and run to completion *)
  ignore (Sq.take q2);
  run_to_done ~dir:dir2 q2 j2;
  Alcotest.(check bool) "resumed to done" true (j2.Sq.state = Sq.Done);
  Alcotest.(check int) "restored from checkpoint" 1 j2.Sq.restored;
  Alcotest.(check string) "table bit-identical after kill+resume" t1
    (table_string j2);
  Wal.close wal2;
  Alcotest.(check string) "checkpoint bit-identical" (logged_text dir1)
    (logged_text dir2);

  (* jobs invariance: a parallel run of the same grid, same bytes *)
  let dir3 = fresh_dir () in
  let q3 = Sq.create () in
  let j3 =
    match Sq.submit q3 (bitid_spec ~jobs:2 ()) with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit failed"
  in
  ignore (Sq.take q3);
  run_to_done ~dir:dir3 q3 j3;
  Alcotest.(check string) "table invariant under jobs" t1 (table_string j3)

let test_cancel_mid_grid =
  with_registry (fun () ->
      let dir, wal, q = logged_queue () in
      let job =
        match Sq.submit q (bitid_spec ~tag:"cancelme" ()) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit failed"
      in
      ignore (Sq.take q);
      (* cancel through the public surface once the first cell lands: the
         runner must stop at the next cell boundary, not finish the grid *)
      Runner.run_job ~checkpoint_every:1
        ~should_stop:(fun () ->
          if job.Sq.cells_done >= 1 && not (Atomic.get job.Sq.cancel) then
            ignore (Sq.cancel q job.Sq.id);
          false)
        q job;
      Alcotest.(check bool) "cancelled" true (job.Sq.state = Sq.Cancelled);
      Alcotest.(check bool) "stopped mid-grid" true
        (job.Sq.cells_done >= 1 && job.Sq.cells_done < job.Sq.cells_total);
      Alcotest.(check (option int)) "metric" (Some 1)
        (Metrics.counter_peek "serve.jobs.cancelled");
      (* the log holds exactly the completed cells *)
      Wal.close wal;
      Alcotest.(check int) "one logged cell per done cell" job.Sq.cells_done
        (List.length (logged_cells dir)))

(* ---------------- daemon HTTP surface ---------------- *)

let status_of response =
  match String.split_on_char ' ' response with
  | _http :: code :: _ -> int_of_string_opt code
  | _ -> None

let body_of response =
  let n = String.length response in
  let rec find i =
    if i + 4 > n then None
    else if String.sub response i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub response i (n - i)
  | None -> ""

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let post_jobs body =
  Printf.sprintf "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let test_daemon_http () =
  let daemon = Daemon.create ~dir:(fresh_dir ()) ~max_queued:2 () in
  let handle = Http.handle ~handler:(Daemon.handler daemon) in
  (* submit *)
  let r = handle (post_jobs {|{"exp":"ack","params":[2],"seeds":[1]}|}) in
  Alcotest.(check (option int)) "submit accepted" (Some 202) (status_of r);
  Alcotest.(check bool) "reports id" true (has_sub (body_of r) {|"id":1|});
  (* bad submissions *)
  Alcotest.(check (option int)) "malformed json" (Some 400)
    (status_of (handle (post_jobs "{oops")));
  Alcotest.(check (option int)) "unknown experiment" (Some 400)
    (status_of
       (handle (post_jobs {|{"exp":"nope","params":[2],"seeds":[1]}|})));
  Alcotest.(check (option int)) "unknown field" (Some 400)
    (status_of
       (handle
          (post_jobs {|{"exp":"ack","params":[2],"seeds":[1],"x":1}|})));
  (* backpressure at the HTTP layer: cap 2, one queued already *)
  let r2 = handle (post_jobs {|{"exp":"ack","params":[3],"seeds":[1]}|}) in
  Alcotest.(check (option int)) "second accepted" (Some 202) (status_of r2);
  let r3 = handle (post_jobs {|{"exp":"ack","params":[4],"seeds":[1]}|}) in
  Alcotest.(check (option int)) "third rejected" (Some 429) (status_of r3);
  Alcotest.(check bool) "429 names the queue" true
    (has_sub (body_of r3) "queue full");
  (* listing and status *)
  let l = handle "GET /jobs HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "list ok" (Some 200) (status_of l);
  Alcotest.(check bool) "list carries depth" true
    (has_sub (body_of l) {|"depth":2|});
  let s = handle "GET /jobs/1 HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "status ok" (Some 200) (status_of s);
  Alcotest.(check bool) "status carries spec" true
    (has_sub (body_of s) {|"spec":|});
  Alcotest.(check (option int)) "missing job" (Some 404)
    (status_of (handle "GET /jobs/99 HTTP/1.1\r\n\r\n"));
  (* cancel: idempotent on a cancelled job, 409 only on done/failed *)
  Alcotest.(check (option int)) "cancel queued" (Some 200)
    (status_of (handle "DELETE /jobs/1 HTTP/1.1\r\n\r\n"));
  let again = handle "DELETE /jobs/1 HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "cancel again is idempotent 200" (Some 200)
    (status_of again);
  Alcotest.(check bool) "idempotent cancel reports state" true
    (has_sub (body_of again) {|"state":"cancelled"|});
  Alcotest.(check (option int)) "cancel missing" (Some 404)
    (status_of (handle "DELETE /jobs/99 HTTP/1.1\r\n\r\n"));
  (* run job 2 to done: cancelling finished work is a real 409 conflict *)
  while Daemon.step daemon do () done;
  Alcotest.(check (option int)) "cancel done conflicts" (Some 409)
    (status_of (handle "DELETE /jobs/2 HTTP/1.1\r\n\r\n"));
  (* method discipline on the namespace *)
  let m = handle "DELETE /jobs HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "DELETE /jobs is 405" (Some 405)
    (status_of m);
  Alcotest.(check bool) "Allow header" true (has_sub m "Allow: GET, POST");
  let m2 = handle "POST /jobs/1 HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "POST /jobs/:id is 405" (Some 405)
    (status_of m2);
  Alcotest.(check bool) "Allow header lists id methods" true
    (has_sub m2 "Allow: GET, DELETE");
  (* builtin routes still served below the handler *)
  Alcotest.(check (option int)) "healthz fallback" (Some 200)
    (status_of (handle "GET /healthz HTTP/1.1\r\n\r\n"))

(* ---------------- hardened request handling ---------------- *)

let test_http_hardening () =
  (* bounded request line/headers *)
  let huge = "GET /" ^ String.make (Http.max_header + 10) 'a' ^ " HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "oversized header is 431" (Some 431)
    (status_of (Http.handle huge));
  (* bounded body *)
  let big_decl =
    Printf.sprintf "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
      (Http.max_body + 1)
  in
  Alcotest.(check (option int)) "oversized body is 413" (Some 413)
    (status_of (Http.handle big_decl));
  (* unknown methods are 405 with Allow, not dropped connections *)
  let m = Http.handle "PUT /metrics HTTP/1.1\r\n\r\n" in
  Alcotest.(check (option int)) "PUT is 405" (Some 405) (status_of m);
  Alcotest.(check bool) "Allow present" true (has_sub m "Allow:");
  (* every response, errors included, is framed for close *)
  List.iter
    (fun raw ->
      let r = Http.handle raw in
      Alcotest.(check bool)
        (Printf.sprintf "Content-Length on %S" raw)
        true
        (has_sub r "Content-Length: ");
      Alcotest.(check bool)
        (Printf.sprintf "Connection: close on %S" raw)
        true
        (has_sub r "Connection: close"))
    [ "GET /nope HTTP/1.1\r\n\r\n"; "PUT /metrics HTTP/1.1\r\n\r\n"; "??";
      "GET /healthz HTTP/1.1\r\n\r\n" ]

(* ---------------- WAL: encode, replay, torn tail, corruption -------- *)

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_wal_roundtrip =
  with_registry (fun () ->
      let spec = spec_ack ~jobs:2 ~tag:"w" [ 2 ] [ 1 ] in
      let evs =
        [ Wal.Submitted spec; Wal.Started 2;
          Wal.Cells [ (2, 1, Json.Obj [ ("slots", Json.int 3) ]); (2, 2, Json.Null) ];
          Wal.Cells []; Wal.Yielded;
          Wal.Strikes 2; Wal.Completed; Wal.Cancelled; Wal.Failed "boom";
          Wal.Quarantined "poison" ]
      in
      List.iter
        (fun ev ->
          let r = { Wal.job = 7; ev } in
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" (Wal.encode r))
            true
            (Wal.decode (Wal.encode r) = Some r))
        evs;
      (* a flipped payload byte fails the CRC *)
      let line = Wal.encode { Wal.job = 1; ev = Wal.Completed } in
      let b = Bytes.of_string line in
      let i = String.length line - 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Alcotest.(check bool) "bit flip detected" true
        (Wal.decode (Bytes.to_string b) = None);
      Alcotest.(check bool) "garbage rejected" true
        (Wal.decode "not a wal line" = None);
      (* append + replay round trip through a real file *)
      let dir = fresh_dir () in
      let records =
        [ { Wal.job = 1; ev = Wal.Submitted spec };
          { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 1; ev = Wal.Cells [ (2, 1, Json.int 7) ] };
          { Wal.job = 1; ev = Wal.Completed } ]
      in
      let w = Wal.open_ ~fsync_every:2 ~dir () in
      List.iter (Wal.append w) records;
      Alcotest.(check bool) "writer healthy" true (Wal.healthy w);
      Wal.close w;
      let r = Wal.replay ~dir in
      Alcotest.(check bool) "no torn tail" false r.Wal.torn_tail;
      Alcotest.(check bool) "no corruption" false r.Wal.corrupt;
      Alcotest.(check bool) "records replayed" true (r.Wal.records = records);
      Alcotest.(check (option int)) "appends counted" (Some 4)
        (Metrics.counter_peek "serve.wal.appends"))

let test_wal_torn_tail =
  with_registry (fun () ->
      let spec = spec_ack [ 2 ] [ 1 ] in
      let dir = fresh_dir () in
      let records =
        [ { Wal.job = 1; ev = Wal.Submitted spec };
          { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 1; ev = Wal.Cells [ (2, 1, Json.int 7) ] } ]
      in
      let w = Wal.open_ ~dir () in
      List.iter (Wal.append w) records;
      Wal.close w;
      (* SIGKILL mid-append residue: the final line is cut short *)
      let path = Wal.path ~dir in
      let raw = read_file path in
      write_raw path (String.sub raw 0 (String.length raw - 5));
      let r = Wal.replay ~dir in
      Alcotest.(check bool) "torn tail detected" true r.Wal.torn_tail;
      Alcotest.(check bool) "torn tail is not corruption" false r.Wal.corrupt;
      Alcotest.(check bool) "sound prefix kept" true
        (r.Wal.records = [ List.nth records 0; List.nth records 1 ]);
      (* the daemon restarts silently over a torn tail *)
      let d = Daemon.create ~dir () in
      Alcotest.(check bool) "daemon reports torn tail" true
        (Daemon.wal_recovery d = `Torn_tail);
      Alcotest.(check int) "job re-admitted" 1 (Daemon.recovered d);
      Daemon.close d)

let test_wal_corruption =
  with_registry (fun () ->
      let spec = spec_ack [ 2 ] [ 1 ] in
      let spec2 = spec_ack [ 3 ] [ 1 ] in
      let dir = fresh_dir () in
      let w = Wal.open_ ~dir () in
      List.iter (Wal.append w)
        [ { Wal.job = 1; ev = Wal.Submitted spec };
          { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 2; ev = Wal.Submitted spec2 } ];
      Wal.close w;
      (* flip a byte mid-log: a bad line with valid records after it *)
      let path = Wal.path ~dir in
      let lines = String.split_on_char '\n' (read_file path) in
      let mangled =
        List.mapi
          (fun i l -> if i = 1 then "00000000 {\"mangled\":true}" else l)
          lines
      in
      write_raw path (String.concat "\n" mangled);
      let r = Wal.replay ~dir in
      Alcotest.(check bool) "corruption detected" true r.Wal.corrupt;
      Alcotest.(check bool) "prefix before the damage kept" true
        (r.Wal.records = [ { Wal.job = 1; ev = Wal.Submitted spec } ]);
      (* the daemon moves the damaged file aside and restarts clean *)
      let d = Daemon.create ~dir () in
      (match Daemon.wal_recovery d with
       | `Quarantined p ->
         Alcotest.(check bool) "damaged wal preserved on disk" true
           (Sys.file_exists p)
       | `Clean | `Torn_tail -> Alcotest.fail "corruption not quarantined");
      Alcotest.(check int) "sound prefix re-admitted" 1 (Daemon.recovered d);
      Alcotest.(check bool) "job 1 survived" true
        (Sq.find (Daemon.queue d) 1 <> None);
      Alcotest.(check bool) "job 2 was lost to the damage" true
        (Sq.find (Daemon.queue d) 2 = None);
      (* the compacted log replays clean on the next start *)
      Daemon.close d;
      let r2 = Wal.replay ~dir in
      Alcotest.(check bool) "compacted log is sound" true
        ((not r2.Wal.corrupt) && not r2.Wal.torn_tail);
      (* two replays saw the damage: the explicit one above and the
         daemon's own recovery pass *)
      Alcotest.(check (option int)) "corruption counted" (Some 2)
        (Metrics.counter_peek "serve.wal.corrupt"))

let test_checkpoint_torn_tail =
  with_registry (fun () ->
      (* the second checkpoint's record is torn: the first one's cells are
         what the job resumes from *)
      let spec = bitid_spec () in
      let dir = fresh_dir () in
      let w = Wal.open_ ~dir () in
      List.iter (Wal.append w)
        [ { Wal.job = 1; ev = Wal.Submitted spec };
          { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 1; ev = Wal.Cells [ (2, 1, Json.int 7) ] };
          { Wal.job = 1; ev = Wal.Cells [ (2, 2, Json.int 8) ] } ];
      Wal.close w;
      let path = Wal.path ~dir in
      let raw = read_file path in
      write_raw path (String.sub raw 0 (String.length raw - 4));
      let d = Daemon.create ~dir () in
      Fun.protect ~finally:(fun () -> Daemon.close d) @@ fun () ->
      Alcotest.(check bool) "torn record skipped" true
        (Daemon.wal_recovery d = `Torn_tail);
      match Sq.find (Daemon.queue d) 1 with
      | None -> Alcotest.fail "job not re-admitted"
      | Some job ->
        let c = Runner.logged_cursor (Daemon.queue d) job in
        Alcotest.(check int) "clean prefix restored" 1 (Sweep.completed c))

(* ---------------- supervisor: retry, quarantine, budgets ------------ *)

module Fp = Sinr_chaos.Chaos.Failpoint

let with_failpoints f () =
  with_registry (fun () -> Fun.protect ~finally:Fp.clear f) ()

let tight_policy =
  { Supervisor.default_policy with
    Supervisor.base_backoff_s = 0.001;
    max_backoff_s = 0.002 }

let take_now q (job : Sq.job) =
  (* skip the backoff window deterministically *)
  match Sq.take ~now:(job.Sq.not_before +. 1.) q with
  | Some j when j.Sq.id = job.Sq.id -> ()
  | Some j -> Alcotest.failf "took job %d, wanted %d" j.Sq.id job.Sq.id
  | None -> Alcotest.fail "job not runnable"

let test_supervisor_retry =
  with_failpoints (fun () ->
      let dir = fresh_dir () in
      let q = Sq.create () in
      let job =
        match Sq.submit q (spec_ack [ 2 ] [ 1 ]) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit failed"
      in
      let sup = Supervisor.create ~policy:tight_policy () in
      (* transient fault: the first cell evaluation throws, the next works *)
      Fp.arm "serve.cell" (Fp.Times 1);
      ignore (Sq.take q);
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "failed attempt requeues" true
        (job.Sq.state = Sq.Queued);
      Alcotest.(check int) "one strike" 1 job.Sq.attempts;
      Alcotest.(check bool) "backoff window scheduled" true
        (job.Sq.not_before > 0.);
      Alcotest.(check bool) "error names the attempt" true
        (match job.Sq.error with
         | Some e -> has_sub e "attempt 1 failed"
         | None -> false);
      (* inside the backoff window the job is not handed out *)
      Alcotest.(check bool) "take honors backoff" true
        (Sq.take ~now:(job.Sq.not_before -. 0.0005) q = None);
      take_now q job;
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "second attempt recovers" true
        (job.Sq.state = Sq.Done);
      Alcotest.(check int) "two attempts on record" 2 job.Sq.attempts;
      Alcotest.(check bool) "error cleared on success" true
        (job.Sq.error = None);
      Alcotest.(check (option int)) "attempts counted" (Some 2)
        (Metrics.counter_peek "serve.retry.attempts");
      Alcotest.(check (option int)) "retry scheduled" (Some 1)
        (Metrics.counter_peek "serve.retry.scheduled");
      Alcotest.(check (option int)) "recovery counted" (Some 1)
        (Metrics.counter_peek "serve.retry.recovered"))

let test_supervisor_quarantine =
  with_failpoints (fun () ->
      let dir = fresh_dir () in
      let q = Sq.create () in
      let job =
        match Sq.submit q (spec_ack ~tag:"poison" [ 2 ] [ 1 ]) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit failed"
      in
      let sup =
        Supervisor.create
          ~policy:{ tight_policy with Supervisor.max_retries = 1 } ()
      in
      (* poison: every attempt throws *)
      Fp.arm "serve.cell" Fp.Always;
      ignore (Sq.take q);
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "first strike retries" true
        (job.Sq.state = Sq.Queued);
      take_now q job;
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "retry budget exhausted parks the job" true
        (job.Sq.state = Sq.Failed);
      Alcotest.(check bool) "parked as quarantined" true job.Sq.quarantined;
      Alcotest.(check int) "attempts = max_retries + 1" 2 job.Sq.attempts;
      Alcotest.(check bool) "verdict in the error" true
        (match job.Sq.error with
         | Some e -> has_sub e "quarantined after 2 strikes"
         | None -> false);
      Alcotest.(check bool) "flight-recorder dump attached" true
        (match job.Sq.dump with
         | Some p -> Sys.file_exists p
         | None -> false);
      Alcotest.(check (option int)) "gave up counted" (Some 1)
        (Metrics.counter_peek "serve.retry.gave_up");
      Alcotest.(check (option int)) "quarantine counted" (Some 1)
        (Metrics.counter_peek "serve.quarantine.jobs");
      (* one poison spec must not wedge the queue: the next job runs *)
      Fp.clear ();
      let j2 =
        match Sq.submit q (spec_ack [ 3 ] [ 1 ]) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit failed"
      in
      ignore (Sq.take q);
      Supervisor.run sup ~dir q j2;
      Alcotest.(check bool) "queue survives the poison job" true
        (j2.Sq.state = Sq.Done))

let test_supervisor_deadline =
  with_failpoints (fun () ->
      let dir = fresh_dir () in
      let q = Sq.create () in
      let job =
        match Sq.submit q (spec_ack [ 2; 3 ] [ 1 ]) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit failed"
      in
      (* a fake clock that jumps a full second per reading: any deadline
         under a second trips at the first cell boundary *)
      let tick = ref 0. in
      let now () = tick := !tick +. 1.; !tick in
      let sup =
        Supervisor.create
          ~policy:{ tight_policy with Supervisor.deadline_s = 0.5 } ~now ()
      in
      ignore (Sq.take q);
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "deadline is a strike, not a drain" true
        (job.Sq.state = Sq.Queued && job.Sq.attempts = 1);
      Alcotest.(check bool) "error names the deadline" true
        (match job.Sq.error with
         | Some e -> has_sub e "deadline"
         | None -> false);
      Alcotest.(check (option int)) "deadline metric" (Some 1)
        (Metrics.counter_peek "serve.deadline.exceeded"))

let test_supervisor_cell_timeout =
  with_failpoints (fun () ->
      let dir = fresh_dir () in
      let q = Sq.create () in
      let job =
        match Sq.submit q (spec_ack [ 2 ] [ 1 ]) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit failed"
      in
      let sup =
        Supervisor.create
          ~policy:{ tight_policy with Supervisor.cell_timeout_s = 0.01 } ()
      in
      (* a stalled cell: sleeps past its budget, then returns *)
      Fp.arm "serve.cell" (Fp.Delay 0.05);
      ignore (Sq.take q);
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "over-budget cell is a strike" true
        (job.Sq.state = Sq.Queued && job.Sq.attempts = 1);
      Alcotest.(check bool) "cell timeout counted" true
        (match Metrics.counter_peek "serve.cell.timeouts" with
         | Some n -> n >= 1
         | None -> false);
      Fp.clear ();
      take_now q job;
      Supervisor.run sup ~dir q job;
      Alcotest.(check bool) "healthy retry completes" true
        (job.Sq.state = Sq.Done))

(* ---------------- daemon: crash recovery, readiness ------------------ *)

let test_daemon_crash_recovery =
  with_registry (fun () ->
      let spec_body =
        {|{"exp":"ack","params":[2,3],"seeds":[1,2],"jobs":1,"tag":"crash"}|}
      in
      (* uninterrupted reference run *)
      let ref_dir = fresh_dir () in
      let refd = Daemon.create ~dir:ref_dir ~checkpoint_every:1 () in
      let refh = Http.handle ~handler:(Daemon.handler refd) in
      Alcotest.(check (option int)) "reference submit" (Some 202)
        (status_of (refh (post_jobs spec_body)));
      while Daemon.step refd do () done;
      let ref_table = refh "GET /jobs/1/table HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "reference table served" (Some 200)
        (status_of ref_table);
      Daemon.close refd;

      (* hard-crash simulation: daemon A admits the job, checkpoints one
         cell mid-attempt, then the process "dies" — its in-memory state
         is discarded without any drain, close or fsync, exactly the
         SIGKILL residue (the real-signal version runs in `make
         crash-smoke` against the binary) *)
      let dir = fresh_dir () in
      let a = Daemon.create ~dir ~checkpoint_every:1 () in
      let ha = Http.handle ~handler:(Daemon.handler a) in
      Alcotest.(check (option int)) "crash-run submit" (Some 202)
        (status_of (ha (post_jobs spec_body)));
      let t409 = ha "GET /jobs/1/table HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "table before done is 409" (Some 409)
        (status_of t409);
      Alcotest.(check bool) "409 names the state" true
        (has_sub t409 "X-Job-State: queued");
      let job =
        match Sq.take (Daemon.queue a) with
        | Some j -> j
        | None -> Alcotest.fail "take failed"
      in
      let polls = ref 0 in
      Runner.run_job ~checkpoint_every:1
        ~should_stop:(fun () -> incr polls; !polls >= 2)
        (Daemon.queue a) job;
      Alcotest.(check int) "one cell checkpointed before the crash" 1
        job.Sq.cells_done;

      (* restart on the same directories *)
      let b = Daemon.create ~dir ~checkpoint_every:1 () in
      Alcotest.(check bool) "wal replays clean" true
        (Daemon.wal_recovery b = `Clean);
      Alcotest.(check int) "job recovered" 1 (Daemon.recovered b);
      let jb =
        match Sq.find (Daemon.queue b) 1 with
        | Some j -> j
        | None -> Alcotest.fail "recovered job missing"
      in
      Alcotest.(check int) "interrupted attempt is on record" 1
        jb.Sq.attempts;
      let hb = Http.handle ~handler:(Daemon.handler b) in
      let partial =
        Json.member "partial" (Json.parse (body_of (hb "GET /jobs/1 HTTP/1.1\r\n\r\n")))
      in
      Alcotest.(check (option int)) "partial from the logged cells" (Some 1)
        (Option.bind (Option.bind partial (Json.member "done")) Json.to_int);
      Alcotest.(check int) "progress from the logged cells" 1 jb.Sq.cells_done;
      while Daemon.step b do () done;
      Alcotest.(check bool) "recovered job completes" true
        (jb.Sq.state = Sq.Done);
      Alcotest.(check int) "resumed from the checkpoint" 1 jb.Sq.restored;
      Alcotest.(check (option int)) "recovered metric" (Some 1)
        (Metrics.counter_peek "serve.jobs.recovered");
      let tb = hb "GET /jobs/1/table HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "table after recovery" (Some 200)
        (status_of tb);
      Alcotest.(check string) "table byte-identical to uninterrupted run"
        (body_of ref_table) (body_of tb);
      Daemon.close b)

let test_daemon_recovery_quarantine =
  with_registry (fun () ->
      (* a job whose every previous attempt took the process down: three
         Started records, no closing record — past the default budget of
         2 retries, so recovery parks it before it wedges the loop again *)
      let dir = fresh_dir () in
      let spec = spec_ack ~tag:"wedge" [ 2 ] [ 1 ] in
      let w = Wal.open_ ~dir () in
      List.iter (Wal.append w)
        [ { Wal.job = 1; ev = Wal.Submitted spec };
          { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 1; ev = Wal.Started 2 };
          { Wal.job = 1; ev = Wal.Started 3 } ];
      Wal.close w;
      let d = Daemon.create ~dir () in
      let job =
        match Sq.find (Daemon.queue d) 1 with
        | Some j -> j
        | None -> Alcotest.fail "job missing after recovery"
      in
      Alcotest.(check bool) "parked at recovery" true
        (job.Sq.state = Sq.Failed && job.Sq.quarantined);
      Alcotest.(check bool) "verdict mentions recovery" true
        (match job.Sq.error with
         | Some e -> has_sub e "recovery"
         | None -> false);
      Alcotest.(check bool) "step refuses the parked job" false
        (Daemon.step d);
      (* a graceful drain (Yielded) is not a strike: same three attempts
         but each closed, so the job comes back runnable *)
      let dir2 = fresh_dir () in
      let w2 = Wal.open_ ~dir:dir2 () in
      List.iter (Wal.append w2)
        [ { Wal.job = 1; ev = Wal.Submitted spec };
          { Wal.job = 1; ev = Wal.Started 1 };
          { Wal.job = 1; ev = Wal.Yielded };
          { Wal.job = 1; ev = Wal.Started 2 };
          { Wal.job = 1; ev = Wal.Yielded };
          { Wal.job = 1; ev = Wal.Started 3 };
          { Wal.job = 1; ev = Wal.Yielded } ];
      Wal.close w2;
      let d2 = Daemon.create ~dir:dir2 () in
      let job2 =
        match Sq.find (Daemon.queue d2) 1 with
        | Some j -> j
        | None -> Alcotest.fail "job missing after recovery"
      in
      Alcotest.(check bool) "drained job comes back runnable" true
        (job2.Sq.state = Sq.Queued && not job2.Sq.quarantined);
      Alcotest.(check int) "drains are not strikes" 0 job2.Sq.attempts;
      Daemon.close d;
      Daemon.close d2)

let test_daemon_readyz =
  with_registry (fun () ->
      let daemon = Daemon.create ~dir:(fresh_dir ()) ~max_queued:1 () in
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      let r = handle "GET /readyz HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "idle daemon is ready" (Some 200)
        (status_of r);
      Alcotest.(check bool) "ready body" true
        (has_sub (body_of r) {|"ready":true|});
      (* saturated: depth at the cap *)
      Alcotest.(check (option int)) "fills the queue" (Some 202)
        (status_of (handle (post_jobs {|{"exp":"ack","params":[2],"seeds":[1]}|})));
      let r2 = handle "GET /readyz HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "saturated is 503" (Some 503)
        (status_of r2);
      Alcotest.(check bool) "names saturation" true
        (has_sub (body_of r2) {|"saturated"|});
      (* draining *)
      Daemon.request_drain daemon;
      let r3 = handle "GET /readyz HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "draining is 503" (Some 503)
        (status_of r3);
      Alcotest.(check bool) "names the drain" true
        (has_sub (body_of r3) {|"draining"|});
      (* liveness stays honest: the process is still up *)
      Alcotest.(check (option int)) "healthz still 200" (Some 200)
        (status_of (handle "GET /healthz HTTP/1.1\r\n\r\n"));
      Alcotest.(check (option int)) "readyz method discipline" (Some 405)
        (status_of (handle "DELETE /readyz HTTP/1.1\r\n\r\n"));
      Daemon.close daemon)

(* The graceful lifecycle end to end: admission and 429 backpressure at
   a queue cap of 1, the job run to done with its table, its cells on the
   job log and in no other file, the serve.* counters on /metrics, and
   the job's /spans scrape clean under trace-report's strict bounds (the
   Thm 5.1 / 9.1 gate). *)
let test_daemon_lifecycle =
  with_registry (fun () ->
      Recorder.clear ();
      Recorder.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Recorder.set_enabled false;
          Recorder.clear ())
      @@ fun () ->
      let dir = fresh_dir () in
      let daemon = Daemon.create ~dir ~max_queued:1 ~checkpoint_every:2 () in
      Fun.protect ~finally:(fun () -> Daemon.close daemon) @@ fun () ->
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      Alcotest.(check (option int)) "submit accepted" (Some 202)
        (status_of
           (handle
              (post_jobs
                 {|{"exp":"ack","params":[2,3,4],"seeds":[1,2,3],"tag":"smoke"}|})));
      Alcotest.(check (option int)) "second job gets 429 backpressure"
        (Some 429)
        (status_of (handle (post_jobs {|{"exp":"ack","params":[2],"seeds":[1]}|})));
      while Daemon.step daemon do () done;
      let status = body_of (handle "GET /jobs/1 HTTP/1.1\r\n\r\n") in
      Alcotest.(check bool) "job done" true (has_sub status {|"state":"done"|});
      Alcotest.(check bool) "done job has its table" true
        (has_sub status {|"table":|});
      let metrics = body_of (handle "GET /metrics HTTP/1.1\r\n\r\n") in
      let counter name =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ n; v ] when n = name -> int_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' metrics)
      in
      Alcotest.(check bool) "rejection on /metrics" true
        (match counter "serve_jobs_rejected" with Some n -> n >= 1 | None -> false);
      Alcotest.(check bool) "completion on /metrics" true
        (match counter "serve_jobs_completed" with Some n -> n >= 1 | None -> false);
      (* 9 cells at --checkpoint-every 2: five cells records, one per
         checkpoint, and the WAL the only file the job wrote *)
      let cells_records =
        List.filter
          (fun (r : Wal.record) ->
            match r.Wal.ev with Wal.Cells _ -> true | _ -> false)
          (Wal.replay ~dir).Wal.records
      in
      Alcotest.(check int) "one cells record per checkpoint" 5
        (List.length cells_records);
      Alcotest.(check (option int)) "serve_checkpoints counts them" (Some 5)
        (counter "serve_checkpoints");
      Alcotest.(check int) "every cell logged" 9 (List.length (logged_cells dir));
      Alcotest.(check (list string)) "no file but the WAL" [ "serve.wal" ]
        (Array.to_list (Sys.readdir dir));
      let spans =
        List.filter (fun l -> l <> "")
          (String.split_on_char '\n' (body_of (handle "GET /spans HTTP/1.1\r\n\r\n")))
      in
      let r = Trace_report.analyze (Trace_report.of_lines spans) in
      Alcotest.(check bool) "spans carry the job's messages" true
        (r.Trace_report.messages <> []);
      Alcotest.(check int) "no message past its bound (trace-report --strict)" 0
        (Trace_report.flagged r))

(* ---------------- event streams -------------------------------------- *)

let int_field k body =
  match Json.member k body with
  | Some v -> Option.value ~default:(-1) (Json.to_int v)
  | None -> -1

(* Two publisher domains interleave events for two jobs; each per-job
   subscriber must see exactly its own job's events in publish order,
   while the firehose sees everything with globally consistent seqs. *)
let test_events_isolation () =
  let t = Events.create () in
  let sub1 = Events.subscribe ~job:1 t in
  let sub2 = Events.subscribe ~job:2 t in
  let fire = Events.subscribe t in
  Alcotest.(check int) "three subscribers" 3 (Events.subscriber_count t);
  let n = 50 in
  let publisher job =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Events.publish t ~job ~typ:"cell"
            (Json.Obj [ ("job_id", Json.int job); ("i", Json.int i) ])
        done)
  in
  let d1 = publisher 1 and d2 = publisher 2 in
  Domain.join d1;
  Domain.join d2;
  let own_in_order job evs =
    let idx e = int_field "i" e.Events.body in
    List.for_all (fun e -> e.Events.job = job) evs
    && List.mapi (fun i e -> (i + 1, idx e)) evs
       |> List.for_all (fun (want, got) -> want = got)
  in
  let e1 = Events.poll sub1 and e2 = Events.poll sub2 in
  Alcotest.(check int) "job-1 sub sees all of job 1" n (List.length e1);
  Alcotest.(check int) "job-2 sub sees all of job 2" n (List.length e2);
  Alcotest.(check bool) "job-1 stream is own events in order" true
    (own_in_order 1 e1);
  Alcotest.(check bool) "job-2 stream is own events in order" true
    (own_in_order 2 e2);
  let strictly_increasing evs =
    let rec go = function
      | a :: (b :: _ as rest) -> a.Events.seq < b.Events.seq && go rest
      | _ -> true
    in
    go evs
  in
  Alcotest.(check bool) "per-job seqs strictly increase" true
    (strictly_increasing e1 && strictly_increasing e2);
  let all = Events.poll fire in
  Alcotest.(check int) "firehose sees both jobs" (2 * n) (List.length all);
  Alcotest.(check bool) "firehose seqs strictly increase" true
    (strictly_increasing all);
  Alcotest.(check bool) "firehose preserves each job's order" true
    (own_in_order 1 (List.filter (fun e -> e.Events.job = 1) all)
     && own_in_order 2 (List.filter (fun e -> e.Events.job = 2) all));
  Alcotest.(check int) "nothing dropped at default buffer" 0
    (Events.dropped sub1 + Events.dropped sub2 + Events.dropped fire);
  Events.unsubscribe t sub1;
  Events.unsubscribe t sub1 (* idempotent *);
  Alcotest.(check int) "unsubscribe detaches" 2 (Events.subscriber_count t)

(* A subscriber that never drains loses its oldest events — and only the
   publisher-side counters move; publish itself keeps returning. *)
let test_events_drop_policy =
  with_registry (fun () ->
      let t = Events.create ~buffer:4 () in
      let stalled = Events.subscribe ~job:1 t in
      let healthy = Events.subscribe ~job:1 t in
      for i = 1 to 10 do
        (* drain the healthy client every round; stall the other *)
        if Events.pending healthy > 0 then ignore (Events.poll healthy);
        Events.publish t ~job:1 ~typ:"cell" (Json.Obj [ ("i", Json.int i) ])
      done;
      Alcotest.(check int) "stalled client lost the oldest six" 6
        (Events.dropped stalled);
      Alcotest.(check (option int)) "global drop counter matches" (Some 6)
        (Metrics.counter_peek "serve.events.dropped");
      Alcotest.(check (option int)) "every publish counted" (Some 10)
        (Metrics.counter_peek "serve.events.published");
      (* newest-wins: the survivors are the last four, in order *)
      let left = Events.poll stalled in
      Alcotest.(check (list int)) "survivors are the newest events"
        [ 7; 8; 9; 10 ]
        (List.map (fun e -> int_field "i" e.Events.body) left);
      Alcotest.(check int) "healthy client dropped nothing" 0
        (Events.dropped healthy);
      Events.unsubscribe t stalled;
      Events.unsubscribe t healthy)

(* End-to-end over a real socket: the watch client, fed nothing but the
   SSE stream, reassembles the job's table byte-identically to what
   GET /jobs/:id/table serves.  Both clients attach before the job runs:
   the watcher sees a live cell frame before the terminal done state,
   and a raw reader of the same stream sees it close by itself once that
   state is sent. *)
let test_watch_reassembles_table =
  with_registry (fun () ->
      let daemon = Daemon.create ~dir:(fresh_dir ()) ~checkpoint_every:2 () in
      let server =
        Http.serve ~handler:(Daemon.handler daemon)
          ~stream_handler:(Daemon.stream_handler daemon) ~port:0 ()
      in
      Fun.protect
        ~finally:(fun () ->
          Http.stop server;
          Daemon.close daemon)
      @@ fun () ->
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      Alcotest.(check (option int)) "submit" (Some 202)
        (status_of
           (handle (post_jobs {|{"exp":"ack","params":[2,3,4],"seeds":[1,2]}|})));
      let port = Http.port server in
      let watcher =
        Domain.spawn (fun () ->
            let frames = ref [] in
            let on_event ~typ body =
              let state =
                match Json.member "state" body with
                | Some (Json.Str s) -> s
                | _ -> ""
              in
              frames := (typ, state) :: !frames
            in
            let outcome = Watch.watch ~on_event ~port ~job:1 () in
            (outcome, List.rev !frames))
      in
      (* Test_obs.http_request reads to EOF; a stream still open 5 s after
         its last frame raises EAGAIN instead. *)
      let raw =
        Domain.spawn (fun () ->
            match Test_obs.http_request ~timeout:5. port "/jobs/1/events" with
            | bytes -> Ok bytes
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
              Error "stream still open 5 s after its last frame")
      in
      let deadline = Unix.gettimeofday () +. 10. in
      while Events.subscriber_count (Daemon.events daemon) < 2 do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "stream clients never subscribed";
        Unix.sleepf 0.001
      done;
      while Daemon.step daemon do () done;
      let outcome, frames = Domain.join watcher in
      let rec cell_before_done = function
        | [] -> false
        | ("cell", _) :: _ -> true
        | ("state", "done") :: _ -> false
        | _ :: rest -> cell_before_done rest
      in
      Alcotest.(check bool) "a live cell frame before the done state" true
        (cell_before_done frames);
      Alcotest.(check bool) "row frames in the stream" true
        (List.mem_assoc "row" frames);
      (match Domain.join raw with
       | Error e -> Alcotest.fail e
       | Ok bytes ->
         let frame_lines =
           List.filter
             (fun l -> has_sub l "event: " || has_sub l "data: ")
             (String.split_on_char '\n' bytes)
         in
         Alcotest.(check bool) "closed right after the done state" true
           (match List.rev frame_lines with
            | data :: "event: state" :: _ -> has_sub data {|"state":"done"|}
            | _ -> false));
      let table =
        match outcome with
        | Watch.Completed table -> table
        | Watch.Failed { error; _ } -> Alcotest.failf "watch failed: %s" error
        | Watch.Cancelled -> Alcotest.fail "watch saw a cancel"
        | Watch.Stream_error e -> Alcotest.failf "stream error: %s" e
      in
      let served = handle "GET /jobs/1/table HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "table endpoint agrees it is done"
        (Some 200) (status_of served);
      Alcotest.(check string) "watch table byte-identical to /table"
        (body_of served)
        (Json.to_string_json table ^ "\n");
      (* a watch attached after completion replays to the same bytes *)
      let replayed = Watch.watch ~port ~job:1 () in
      (match replayed with
       | Watch.Completed t2 ->
         Alcotest.(check string) "replay-only watch agrees"
           (Json.to_string_json table) (Json.to_string_json t2)
       | _ -> Alcotest.fail "replay watch did not complete");
      Alcotest.(check bool) "watching a missing job is an error" true
        (match Watch.watch ~port ~job:99 () with
         | Watch.Stream_error _ -> true
         | _ -> false))

(* A finished job keeps its results once: GET /jobs/:id carries the
   table and no longer the last checkpoint's partial tree, and a watch
   attached after completion still replays the table's rows. *)
let test_done_job_drops_partial =
  with_registry (fun () ->
      let daemon = Daemon.create ~dir:(fresh_dir ()) ~checkpoint_every:2 () in
      let server =
        Http.serve ~handler:(Daemon.handler daemon)
          ~stream_handler:(Daemon.stream_handler daemon) ~port:0 ()
      in
      Fun.protect
        ~finally:(fun () ->
          Http.stop server;
          Daemon.close daemon)
      @@ fun () ->
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      Alcotest.(check (option int)) "submit" (Some 202)
        (status_of
           (handle (post_jobs {|{"exp":"ack","params":[2,3,4],"seeds":[1,2]}|})));
      while Daemon.step daemon do () done;
      let status = body_of (handle "GET /jobs/1 HTTP/1.1\r\n\r\n") in
      Alcotest.(check bool) "done" true (has_sub status {|"state":"done"|});
      Alcotest.(check bool) "carries the table" true
        (has_sub status {|"table":|});
      Alcotest.(check bool) "no partial" false (has_sub status {|"partial":|});
      let served = body_of (handle "GET /jobs/1/table HTTP/1.1\r\n\r\n") in
      match Watch.watch ~port:(Http.port server) ~job:1 () with
      | Watch.Completed table ->
        Alcotest.(check string) "replayed rows rebuild the table" served
          (Json.to_string_json table ^ "\n")
      | _ -> Alcotest.fail "replay watch did not complete")

(* A finished job keeps its table as JSON text, not as a tree (a chaos
   job's table tree alone is ~750 words): the words the queue retains per
   job, its spec, table and record, stay bounded as jobs accumulate.  One
   real chaos job supplies the table; every later job gets its own parsed
   spec and its own parsed copy of that table, as a daemon's jobs do. *)
let test_done_job_words =
  with_registry (fun () ->
      let body = {|{"exp":"chaos","params":[0,50],"seeds":[1,2],"jobs":1}|} in
      let spec () =
        match Spec.of_string body with
        | Ok s -> s
        | Error e -> Alcotest.failf "spec: %s" e
      in
      let q = Sq.create () in
      let next () =
        match Sq.submit q (spec ()) with
        | Error _ -> Alcotest.fail "submit rejected"
        | Ok j -> (
          match Sq.take q with
          | Some j' when j' == j -> j
          | _ -> Alcotest.fail "take did not start the job")
      in
      let j0 = next () in
      run_to_done ~dir:(fresh_dir ()) q j0;
      let text = table_string j0 in
      let check_words ~jobs =
        while List.length (Sq.jobs q) < jobs do
          let j = next () in
          Sq.finish q j (`Done (Json.parse text))
        done;
        let all = Sq.jobs q in
        List.iter
          (fun j ->
            Alcotest.(check (option string)) "table kept as its text"
              (Some text) j.Sq.table)
          all;
        let per_job = Obj.reachable_words (Obj.repr all) / List.length all in
        if per_job > 250 then
          Alcotest.failf "%d jobs retain %d words each, want <= 250" jobs
            per_job
      in
      check_words ~jobs:100;
      check_words ~jobs:300)

(* Two jobs through the same daemon: each /jobs/:id/metrics page carries
   only its own job's labeled children. *)
let test_job_metrics_disjoint =
  with_registry (fun () ->
      let daemon = Daemon.create ~dir:(fresh_dir ()) () in
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      Alcotest.(check (option int)) "submit job 1" (Some 202)
        (status_of (handle (post_jobs {|{"exp":"ack","params":[2,3],"seeds":[1]}|})));
      Alcotest.(check (option int)) "submit job 2" (Some 202)
        (status_of (handle (post_jobs {|{"exp":"ack","params":[4],"seeds":[1,2]}|})));
      while Daemon.step daemon do () done;
      let m1 = handle "GET /jobs/1/metrics HTTP/1.1\r\n\r\n" in
      let m2 = handle "GET /jobs/2/metrics HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "job 1 metrics served" (Some 200)
        (status_of m1);
      Alcotest.(check (option int)) "job 2 metrics served" (Some 200)
        (status_of m2);
      Alcotest.(check bool) "job 1 page counts its own cells" true
        (has_sub (body_of m1) {|serve_cells_done{job_id="1"} 2|});
      Alcotest.(check bool) "job 2 page counts its own cells" true
        (has_sub (body_of m2) {|serve_cells_done{job_id="2"} 2|});
      Alcotest.(check bool) "job 1 page carries no job-2 labels" false
        (has_sub (body_of m1) {|job_id="2"|});
      Alcotest.(check bool) "job 2 page carries no job-1 labels" false
        (has_sub (body_of m2) {|job_id="1"|});
      Test_obs.check_prometheus_text "job 1 page" (body_of m1);
      Test_obs.check_prometheus_text "job 2 page" (body_of m2);
      (* the per-job cell latency histogram rides along *)
      Alcotest.(check bool) "job page carries its cell histogram" true
        (has_sub (body_of m1) {|serve_cell_seconds_count{job_id="1"}|});
      Alcotest.(check (option int)) "unknown job is 404" (Some 404)
        (status_of (handle "GET /jobs/99/metrics HTTP/1.1\r\n\r\n"));
      Alcotest.(check (option int)) "method discipline" (Some 405)
        (status_of (handle "DELETE /jobs/1/metrics HTTP/1.1\r\n\r\n"));
      Daemon.close daemon)

(* Events are stamped with the running job's id when they are recorded,
   like spans, so a per-job scrape (/spans?job=N) carries that job's rcv
   events and trace-report on it sees progress. *)
let test_job_spans_carry_events =
  with_registry (fun () ->
      Recorder.clear ();
      Recorder.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Recorder.set_enabled false;
          Recorder.clear ())
      @@ fun () ->
      let daemon = Daemon.create ~dir:(fresh_dir ()) () in
      Fun.protect ~finally:(fun () -> Daemon.close daemon) @@ fun () ->
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      List.iter
        (fun seed ->
          Alcotest.(check (option int)) "submit" (Some 202)
            (status_of
               (handle
                  (post_jobs
                     (Printf.sprintf
                        {|{"exp":"chaos","params":[0],"seeds":[%d]}|} seed)))))
        [ 1; 2 ];
      while Daemon.step daemon do () done;
      let scrape job =
        body_of
          (handle
             (Printf.sprintf "GET /spans?job=%d&last=1000000 HTTP/1.1\r\n\r\n"
                job))
      in
      let lines job =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' (scrape job))
      in
      let rcvs job =
        List.filter (fun l -> has_sub l {|"ev":"rcv"|}) (lines job)
      in
      List.iter
        (fun job ->
          let own = Printf.sprintf {|"job_id":%d|} job in
          Alcotest.(check bool)
            (Printf.sprintf "job %d scrape has rcv events" job)
            true
            (rcvs job <> []);
          Alcotest.(check bool)
            (Printf.sprintf "every rcv in job %d's scrape is its own" job)
            true
            (List.for_all (fun l -> has_sub l own) (rcvs job));
          let r = Trace_report.analyze (Trace_report.of_lines (lines job)) in
          Alcotest.(check bool)
            (Printf.sprintf "job %d report measures progress" job)
            true
            (r.Trace_report.prog_pcts <> None))
        [ 1; 2 ])

(* A job's cells can end mid-epoch, leaving Approx_progress spans open;
   when the attempt ends they are closed, so a long-lived daemon's open
   table (and every flight dump's "open" list) does not grow per job. *)
let test_finished_jobs_leave_no_open_spans =
  with_registry (fun () ->
      Recorder.clear ();
      Recorder.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Recorder.set_enabled false;
          Recorder.clear ())
      @@ fun () ->
      let daemon = Daemon.create ~dir:(fresh_dir ()) () in
      Fun.protect ~finally:(fun () -> Daemon.close daemon) @@ fun () ->
      let handle = Http.handle ~handler:(Daemon.handler daemon) in
      let jobs = 20 in
      for seed = 1 to jobs do
        Alcotest.(check (option int)) "submit" (Some 202)
          (status_of
             (handle
                (post_jobs
                   (Printf.sprintf
                      {|{"exp":"chaos","params":[0,50],"seeds":[%d]}|} seed))));
        while Daemon.step daemon do () done
      done;
      let leftover =
        List.filter
          (fun (sp : Span.t) ->
            match List.assoc_opt "job_id" sp.Span.attrs with
            | Some j -> (
              match Json.to_int j with
              | Some id -> id >= 1 && id <= jobs
              | None -> false)
            | None -> false)
          (Span.open_spans ())
      in
      Alcotest.(check int) "open spans of finished jobs" 0
        (List.length leftover);
      let header =
        List.hd
          (String.split_on_char '\n' (Recorder.to_jsonl ~reason:"test" ()))
      in
      Alcotest.(check (option int)) "dump lists nothing open" (Some 0)
        (Option.bind (Json.member "open" (Json.parse header)) Json.to_int);
      Alcotest.(check bool) "the closed spans are in the ring, marked" true
        (List.exists
           (function
             | Span.Span_entry sp ->
               List.mem_assoc "abandoned" sp.Span.attrs
             | Span.Event_entry _ -> false)
           (Span.entries ())))

(* ---------------- http: slowloris guard ------------------------------ *)

let test_http_read_timeout () =
  let server = Http.serve ~read_timeout:0.2 ~port:0 () in
  Fun.protect ~finally:(fun () -> Http.stop server) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Http.port server));
  (* open the request line but never finish the headers *)
  let partial = "GET /healthz HTTP/1.1\r\n" in
  ignore (Unix.write_substring fd partial 0 (String.length partial));
  let buf = Bytes.create 4096 in
  let rec read_all acc =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> acc
    | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> acc
  in
  let resp = read_all "" in
  Alcotest.(check (option int)) "slow client gets 408" (Some 408)
    (status_of resp)

(* ---------------- bench diff: missing current snapshot -------------- *)

let test_bench_diff_missing_current () =
  let baseline =
    [ ("par.speedup", Metrics.Gauge_v 3.0);
      ("phys.seconds", Metrics.Gauge_v 1.5);
      ("host.slots_per_s", Metrics.Gauge_v 1e6) ]
  in
  let findings =
    Bench_diff.missing_current ~ignores:[ "host.*" ] ~baseline ()
  in
  Alcotest.(check int) "one finding per metric" 3 (List.length findings);
  let by_status st =
    List.filter (fun f -> f.Bench_diff.status = st) findings
  in
  Alcotest.(check int) "non-ignored are Missing" 2
    (List.length (by_status Bench_diff.Missing));
  Alcotest.(check int) "ignores respected" 1
    (List.length (by_status Bench_diff.Ignored));
  Alcotest.(check int) "gate fails on all missing" 2
    (List.length (Bench_diff.regressions findings));
  List.iter
    (fun f ->
      Alcotest.(check bool) "baseline value reported" true
        (f.Bench_diff.base <> None);
      Alcotest.(check bool) "no current value" true (f.Bench_diff.cur = None))
    findings

let suite =
  [ Alcotest.test_case "spec: roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec: rejections" `Quick test_spec_rejections;
    Alcotest.test_case "registry: resolve" `Quick test_registry_resolve;
    Alcotest.test_case "cursor: basics" `Quick test_cursor_basics;
    Alcotest.test_case "cursor: equals grid across stop/resume" `Quick
      test_cursor_matches_grid;
    Alcotest.test_case "queue: backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "queue: cancel states" `Quick test_queue_cancel;
    Alcotest.test_case "runner: kill+resume bit-identical" `Slow
      test_resume_bit_identical;
    Alcotest.test_case "runner: cancel mid-grid" `Slow test_cancel_mid_grid;
    Alcotest.test_case "daemon: /jobs http surface" `Quick test_daemon_http;
    Alcotest.test_case "http: hardened request handling" `Quick
      test_http_hardening;
    Alcotest.test_case "wal: encode/append/replay roundtrip" `Quick
      test_wal_roundtrip;
    Alcotest.test_case "wal: torn tail skipped" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal: corruption quarantined" `Quick
      test_wal_corruption;
    Alcotest.test_case "runner: torn checkpoint restores prefix" `Quick
      test_checkpoint_torn_tail;
    Alcotest.test_case "supervisor: transient fault retried" `Quick
      test_supervisor_retry;
    Alcotest.test_case "supervisor: poison job quarantined" `Quick
      test_supervisor_quarantine;
    Alcotest.test_case "supervisor: deadline is a strike" `Quick
      test_supervisor_deadline;
    Alcotest.test_case "supervisor: cell budget enforced" `Quick
      test_supervisor_cell_timeout;
    Alcotest.test_case "daemon: crash-restart bit-identical" `Slow
      test_daemon_crash_recovery;
    Alcotest.test_case "daemon: recovery quarantines wedgers" `Quick
      test_daemon_recovery_quarantine;
    Alcotest.test_case "daemon: /readyz honest readiness" `Quick
      test_daemon_readyz;
    Alcotest.test_case "daemon: submit, 429, done, scrape" `Quick
      test_daemon_lifecycle;
    Alcotest.test_case "events: per-job isolation and order" `Quick
      test_events_isolation;
    Alcotest.test_case "events: stalled client drops oldest" `Quick
      test_events_drop_policy;
    Alcotest.test_case "watch: SSE stream reassembles table" `Slow
      test_watch_reassembles_table;
    Alcotest.test_case "daemon: done job drops its partial" `Quick
      test_done_job_drops_partial;
    Alcotest.test_case "daemon: done job words bounded" `Quick
      test_done_job_words;
    Alcotest.test_case "daemon: /jobs/:id/metrics disjoint" `Quick
      test_job_metrics_disjoint;
    Alcotest.test_case "job spans scrape carries its rcv events" `Quick
      test_job_spans_carry_events;
    Alcotest.test_case "finished jobs leave no open spans" `Quick
      test_finished_jobs_leave_no_open_spans;
    Alcotest.test_case "http: slowloris read timeout" `Slow
      test_http_read_timeout;
    Alcotest.test_case "bench diff: missing current" `Quick
      test_bench_diff_missing_current ]
