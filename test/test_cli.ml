(* The sinr_sim command line, driven through the built binary.

   - Each subcommand's option set is pinned (the option header lines of
     its --help=plain page), so folding the run flags into one shared
     term cannot add, drop or rename a flag.
   - `exp` with an unknown id exits 2 and lists the known ids.
   - A --jobs value below 1 is a usage error (cmdliner's exit 124).
   - An unwritable --serve-port-file fails up front with exit 1 on every
     run subcommand, obs and profile-report included.
   - smb and cons refuse a deployment whose weak graph G1 is disconnected
     with exit 2, in seconds.
   - A run with every output flag writes all three files and reports
     them in order; `profile --n 20` prints a pinned profile.
   - `exp table1-ack --serve 0` serves /healthz (status ok) and /metrics
     (the engine_slots counter family) while it runs, and every line of
     the scrape is well-formed Prometheus exposition.
   - `watch --port-file` on a `serve` job prints exactly the bytes of
     GET /jobs/:id/table, and SIGTERM drains the daemon to exit 0. *)

let exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "sinr_sim.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the binary; returns (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "sinr_cli" ".out" in
  let err = Filename.temp_file "sinr_cli" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The option names of a --help=plain page: the header lines, indented
   by exactly seven spaces and starting with a dash.  Wrapped doc text
   sits deeper and is not picked up. *)
let flags cmd =
  let code, out, _ = run [ cmd; "--help=plain" ] in
  Alcotest.(check int) (cmd ^ " --help exit") 0 code;
  String.split_on_char '\n' out
  |> List.filter_map (fun line ->
         let len = String.length line in
         if len > 8 && String.sub line 0 7 = "       " && line.[7] = '-' then
           let stop = ref 7 in
           while
             !stop < len
             && (match line.[!stop] with 'a' .. 'z' | '-' -> true | _ -> false)
           do incr stop done;
           Some (String.sub line 7 (!stop - 7))
         else None)
  |> List.sort_uniq compare

let deployment_flags = [ "--degree"; "--range"; "--seed"; "-n" ]
let common = [ "--help"; "--version" ]

let run_flags =
  [ "--jobs"; "--metrics-out"; "--prometheus-out"; "--serve";
    "--serve-port-file"; "--trace-out" ]

let expected_flags =
  let without x = List.filter (( <> ) x) in
  [ ("profile", deployment_flags);
    ("smb", deployment_flags @ run_flags);
    ("cons", ("--crashes" :: deployment_flags) @ run_flags);
    ("approg", deployment_flags @ run_flags);
    ( "chaos",
      [ "--abort-rate"; "--crash-frac"; "--degree"; "--downtime"; "--fading";
        "--jam"; "--seed"; "-n" ]
      @ run_flags );
    ("exp", run_flags);
    ( "obs",
      ("--format" :: "--max-slots" :: deployment_flags)
      @ without "--jobs" run_flags );
    ("phys", ("--cases" :: deployment_flags) @ run_flags);
    ( "scale",
      [ "--assert-rss-mb"; "--assert-slots-per-s"; "--seed"; "--slots"; "-n" ]
    );
    ( "serve",
      [ "--cell-timeout"; "--checkpoint-every"; "--dir"; "--job-deadline";
        "--jobs"; "--max-retries"; "--port"; "--queue-cap";
        "--serve-port-file"; "--wal-dir" ] );
    ("watch", [ "--host"; "--port"; "--port-file" ]);
    ("trace-report", [ "--job"; "--strict" ]);
    ( "profile-report",
      ("--max-slots" :: deployment_flags) @ without "--trace-out" run_flags )
  ]

let test_flag_sets () =
  List.iter
    (fun (cmd, want) ->
      Alcotest.(check (list string))
        (cmd ^ " flags")
        (List.sort_uniq compare (common @ want))
        (flags cmd))
    expected_flags

let test_exp_unknown () =
  let code, _, err = run [ "exp"; "nosuch" ] in
  Alcotest.(check int) "exit" 2 code;
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) ("names " ^ id) true (contains err id))
    Sinr_expt.Catalog.experiments

let test_jobs_positive () =
  List.iter
    (fun args ->
      let code, out, err = run args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": exit") 124 code;
      Alcotest.(check string) (what ^ ": no run") "" out;
      Alcotest.(check bool) (what ^ ": names --jobs") true
        (contains err "--jobs"))
    [ [ "smb"; "-n"; "10"; "--jobs"; "0" ];
      [ "exp"; "table1-ack"; "--jobs=-1" ];
      [ "profile-report"; "-n"; "10"; "--jobs"; "0" ];
      [ "serve"; "--jobs"; "0" ] ]

let test_unwritable_port_file () =
  (* A path under a regular file can never be created. *)
  let file = Filename.temp_file "sinr_cli" ".blocker" in
  let port_file = Filename.concat file "port.txt" in
  List.iter
    (fun cmd ->
      let code, out, err =
        run
          [ cmd; "-n"; "10"; "--max-slots"; "100"; "--serve"; "0";
            "--serve-port-file"; port_file ]
      in
      Alcotest.(check int) (cmd ^ ": exit") 1 code;
      Alcotest.(check string) (cmd ^ ": nothing served") "" out;
      Alcotest.(check bool) (cmd ^ ": message") true
        (contains err "sinr_sim: cannot write output"))
    [ "obs"; "profile-report" ];
  let code, _, _ =
    run [ "smb"; "-n"; "10"; "--serve"; "0"; "--serve-port-file"; port_file ]
  in
  Sys.remove file;
  Alcotest.(check int) "smb: exit" 1 code

let test_disconnected_refused () =
  (* Seed 1's default deployment (n = 50) has a disconnected G1: both
     global protocols print the profile and refuse before any slot. *)
  List.iter
    (fun cmd ->
      let t0 = Unix.gettimeofday () in
      let code, out, err = run [ cmd; "--seed"; "1" ] in
      Alcotest.(check int) (cmd ^ ": exit") 2 code;
      Alcotest.(check bool) (cmd ^ ": profile printed") true
        (contains out "connected     false");
      Alcotest.(check bool) (cmd ^ ": names the disconnection") true
        (contains err "disconnected (2 components)");
      Alcotest.(check bool) (cmd ^ ": no slot run") true
        (Unix.gettimeofday () -. t0 < 10.))
    [ "smb"; "cons" ]

let test_run_outputs () =
  let tmp ext = Filename.temp_file "sinr_cli" ext in
  let m = tmp ".json" and p = tmp ".prom" and t = tmp ".jsonl" in
  let code, out, _ =
    run
      [ "obs"; "-n"; "10"; "--max-slots"; "2000"; "--format"; "json";
        "--metrics-out"; m; "--prometheus-out"; p; "--trace-out"; t ]
  in
  Alcotest.(check int) "exit" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check (list string))
    "report lines"
    [ "[metrics written: " ^ m ^ "]"; "[prometheus written: " ^ p ^ "]";
      "[trace written: " ^ t ^ "]" ]
    (List.filteri (fun i _ -> i >= List.length lines - 3) lines);
  Alcotest.(check bool) "snapshot on stdout" true
    (contains (List.hd lines) "\"label\":\"obs\"");
  Alcotest.(check bool) "metrics file" true
    (contains (read_file m) "\"label\":\"obs\"");
  Alcotest.(check bool) "prometheus file" true
    (contains (read_file p) "# TYPE engine_slots counter");
  Alcotest.(check bool) "trace file" true (String.length (read_file t) > 0);
  List.iter Sys.remove [ m; p; t ]

let test_profile_output () =
  let code, out, _ = run [ "profile"; "--n"; "20" ] in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string) "profile"
    "deployment uniform(n=20,deg~8)\n\
    \  config        sinr{alpha=3 beta=1.5 N=1 P=2.59e+03 eps=0.1 R=12 \
     R1-e=10.8}\n\
    \  Lambda        9.38\n\
    \  Delta(G1-e)   9\n\
    \  D(G1-e)       6\n\
    \  D(G1-2e)      4\n\
    \  connected     true\n"
    out

(* Start [exp table1-ack] with a live server on a kernel-picked port and
   scrape it while the sweep runs: /healthz once, then /metrics until the
   engine_slots family shows (the engine registers it with its first
   slot).  The run lasts about 0.1 s, so the port file and /metrics are
   polled every millisecond; the result is [None] when the run ended
   first.  A server that stays up without engine_slots for 10 s, or a
   reply that stalls for 5 s, fails the test with the child's log. *)
let scrape_live_run () =
  let port_file = Filename.temp_file "sinr_cli" ".port" in
  let log = Filename.temp_file "sinr_cli" ".log" in
  Sys.remove port_file;
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe
      [| exe; "exp"; "table1-ack"; "--serve"; "0"; "--serve-port-file";
         port_file |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  (* The file is created empty up front and gets the port once the
     server is up. *)
  let rec port tries =
    match
      if Sys.file_exists port_file then
        int_of_string_opt (String.trim (read_file port_file))
      else None
    with
    | Some p -> Some p
    | None when tries = 0 -> None
    | None ->
      Unix.sleepf 0.001;
      port (tries - 1)
  in
  let get port path =
    try Test_obs.http_request ~timeout:5. port path
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "GET %s stalled for 5 s:\n%s" path (read_file log)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec metrics port =
    let body = String.trim (Test_obs.body_of (get port "/metrics")) in
    if List.mem "# TYPE engine_slots counter" (String.split_on_char '\n' body)
    then body
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "/metrics showed no engine_slots within 10 s:\n%s"
        (read_file log)
    else begin
      Unix.sleepf 0.001;
      metrics port
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ port_file; log ])
  @@ fun () ->
  match port 10_000 with
  | None -> Alcotest.failf "port file never appeared:\n%s" (read_file log)
  | Some port -> (
    match
      let health = get port "/healthz" in
      (health, metrics port)
    with
    | scrape -> Some scrape
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE), _, _)
      ->
      None)

let test_serve_scrape () =
  let rec attempt k =
    match scrape_live_run () with
    | Some r -> r
    | None when k > 1 -> attempt (k - 1)
    | None -> Alcotest.fail "every run ended before /metrics showed engine_slots"
  in
  let health, body = attempt 5 in
  Alcotest.(check bool) "/healthz ok" true
    (contains health "\"status\":\"ok\"");
  Test_obs.check_prometheus_text "live /metrics" body

(* Start [sinr_sim serve] on a kernel-picked port, submit a job, and
   follow it with [sinr_sim watch --port-file]: the table watch prints is
   byte for byte the body of GET /jobs/:id/table, and a SIGTERM then
   drains the daemon to exit 0. *)
let test_serve_watch () =
  let dir = Filename.temp_dir "sinr_cli" ".serve" in
  let port_file = Filename.concat dir "port.txt" in
  let log = Filename.concat dir "serve.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--serve-port-file"; port_file;
         "--dir"; dir |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  let rec port () =
    match
      if Sys.file_exists port_file then
        int_of_string_opt (String.trim (read_file port_file))
      else None
    with
    | Some p -> p
    | None when Unix.gettimeofday () > deadline ->
      Alcotest.failf "port file never appeared:\n%s" (read_file log)
    | None ->
      Unix.sleepf 0.01;
      port ()
  in
  let port = port () in
  let get path = Test_obs.http_request ~timeout:5. port path in
  Alcotest.(check (option int)) "submit" (Some 202)
    (Test_obs.status_of
       (Test_obs.http_request ~timeout:5. ~meth:"POST"
          ~body:{|{"exp":"ack","params":[2,3],"seeds":[1,2]}|} port "/jobs"));
  let code, out, err = run [ "watch"; "1"; "--port-file"; port_file ] in
  Alcotest.(check int) ("watch exit; stderr:\n" ^ err) 0 code;
  let table = get "/jobs/1/table" in
  Alcotest.(check (option int)) "table served" (Some 200)
    (Test_obs.status_of table);
  Alcotest.(check string) "watch prints GET /jobs/1/table" (Test_obs.body_of table)
    out;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  reaped := true;
  Alcotest.(check bool) ("SIGTERM drains to exit 0:\n" ^ read_file log) true
    (status = Unix.WEXITED 0)

let suite =
  [ Alcotest.test_case "subcommand flag sets" `Quick test_flag_sets;
    Alcotest.test_case "exp unknown id lists the catalog" `Quick
      test_exp_unknown;
    Alcotest.test_case "jobs below 1 is a usage error" `Quick
      test_jobs_positive;
    Alcotest.test_case "unwritable port file fails up front" `Quick
      test_unwritable_port_file;
    Alcotest.test_case "disconnected deployment refused" `Quick
      test_disconnected_refused;
    Alcotest.test_case "run outputs reported in order" `Quick
      test_run_outputs;
    Alcotest.test_case "profile output" `Quick test_profile_output;
    Alcotest.test_case "live /healthz and /metrics scrape" `Quick
      test_serve_scrape;
    Alcotest.test_case "serve + watch prints the table" `Quick
      test_serve_watch ]
