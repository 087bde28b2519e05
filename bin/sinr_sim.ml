(* Command-line driver for the SINR local-broadcast stack.

   Subcommands:
     profile    build a deployment and print its induced-graph profile
     smb        run global single-message broadcast (ours + baselines)
     cons       run network-wide consensus
     approg     measure approximate progress on a deployment
     chaos      run the absMAC under adversarial channels/faults (lib/chaos)
     exp        run a named paper experiment (Catalog, shared with bench)
     obs        run an instrumented workload and print the metric snapshot
     phys       check the physics fast path against the seed kernel
     scale      run the large-n engine workload and gate slots/s + peak RSS
     serve      run the sweep daemon (job queue, WAL, SSE event streams)
     watch      follow one daemon job live over its SSE event stream
     trace-report  analyze a flight-recorder dump against the theorem bounds
     profile-report  profile where slot time goes, per engine stage

   The run subcommands (smb, cons, approg, chaos, exp, obs, phys,
   profile-report) share one set of run options, [run_opts], and one
   lifecycle, [with_run_env]:
     --metrics-out FILE     final metric snapshot as one JSONL object
     --prometheus-out FILE  the same snapshot as Prometheus text
     --trace-out FILE       arm spans + flight recorder, dump the ring to
                            FILE (feed it to `sinr_sim trace-report`)
     --serve PORT           live /metrics /healthz /spans on 127.0.0.1
     --serve-port-file PATH write the bound port there once it is up
     --jobs N               size of the shared [Sinr_par.Pool] (default:
                            $SINR_JOBS, else the recommended domain count)
   obs has no --jobs and profile-report no --trace-out.  Outputs are
   bit-identical for every --jobs value — see DESIGN.md "Observability"
   and "Parallel execution". *)

open Cmdliner
open Sinr_geom
open Sinr_phys
open Sinr_expt
open Sinr_obs

(* ---------------- shared arguments ---------------- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg =
  Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let degree_arg =
  Arg.(value & opt int 8
       & info [ "degree" ] ~docv:"DEG"
           ~doc:"Target strong-graph degree of the uniform deployment.")

let range_arg =
  Arg.(value & opt float 12.0
       & info [ "range" ] ~docv:"R" ~doc:"Transmission range R (sets Lambda).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Enable telemetry for the run and write the final metric \
                 snapshot to $(docv) as one JSONL object.")

let prom_out_arg =
  Arg.(value & opt (some string) None
       & info [ "prometheus-out" ] ~docv:"FILE"
           ~doc:"Enable telemetry for the run and write the final snapshot \
                 to $(docv) as Prometheus text exposition.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable causal tracing (spans + flight recorder) for the \
                 run and dump the recorder ring to $(docv) as JSONL; \
                 analyze it with $(b,sinr_sim trace-report).")

let serve_arg =
  Arg.(value & opt (some int) None
       & info [ "serve" ] ~docv:"PORT"
           ~doc:"Serve live observability over HTTP on 127.0.0.1:$(docv) \
                 for the duration of the run: $(b,GET /metrics) (Prometheus \
                 text of the live snapshot), $(b,/healthz), and $(b,/spans) \
                 (flight-recorder ring as JSONL). Implies telemetry. \
                 $(docv)=0 lets the kernel pick a free port (printed).")

let serve_port_file_arg =
  Arg.(value & opt (some string) None
       & info [ "serve-port-file" ] ~docv:"PATH"
           ~doc:"With $(b,--serve), write the bound port number to $(docv) \
                 (atomic temp+rename) once the server is up — the reliable \
                 way to find the kernel-picked port of $(b,--serve 0).")

(* A value below 1 is a usage error, as it is for bench/main.exe. *)
let jobs_arg =
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some j when j >= 1 -> Ok j
          | Some _ | None ->
            Error (`Msg (Fmt.str "expected a positive integer, got %S" s))),
        Fmt.int )
  in
  Arg.(value & opt (some positive) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains for parallel kernels (Monte-Carlo \
                 reliability, experiment sweeps). $(docv)=1 forces the \
                 legacy sequential path; the default comes from \
                 $(b,SINR_JOBS), else the recommended domain count. \
                 Results are bit-identical whatever $(docv) is.")

(* ---------------- run environment ---------------- *)

type run_opts = {
  metrics_out : string option;
  prom_out : string option;
  trace_out : string option;
  serve : int option;
  serve_port_file : string option;
  jobs : int option;
}

(* The run options as one term.  obs takes no --jobs and profile-report
   no --trace-out: [~jobs:false] / [~trace:false] leave the flag out of
   the subcommand and read it as unset. *)
let run_opts ?(jobs = true) ?(trace = true) () =
  Term.(const (fun metrics_out prom_out trace_out serve serve_port_file jobs ->
            { metrics_out; prom_out; trace_out; serve; serve_port_file; jobs })
        $ metrics_out_arg $ prom_out_arg
        $ (if trace then trace_out_arg else const None)
        $ serve_arg $ serve_port_file_arg
        $ (if jobs then jobs_arg else const None))

(* Probe that [path] is creatable/writable before a (possibly long) run so
   a bad path fails fast instead of discarding the finished simulation's
   output.  Append mode: no truncation of an existing file. *)
let probe_writable path =
  match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
  | oc -> close_out_noerr oc
  | exception Sys_error e ->
    Fmt.epr "sinr_sim: cannot write output: %s@." e;
    Stdlib.exit 1

(* Start the embedded HTTP server on 127.0.0.1:[port] and say where it
   listens; the caller stops it.  The port file is written atomically
   after the bind, so a watcher that sees the file can connect
   immediately. *)
let start_server ?handler ?stream_handler
    ?(banner = "serving /metrics /healthz /spans") ?port_file port =
  match Http.serve ?handler ?stream_handler ~port () with
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "sinr_sim: cannot serve on port %d: %s@." port
      (Unix.error_message e);
    Stdlib.exit 1
  | s ->
    Fmt.pr "[%s on http://127.0.0.1:%d]@." banner (Http.port s);
    Option.iter
      (fun path ->
        Sink.write_file path (string_of_int (Http.port s) ^ "\n");
        Fmt.pr "[port written: %s]@." path)
      port_file;
    s

(* The lifecycle of every run subcommand: size the pool, probe every
   output path, reset and enable the metric registry (when an output,
   --serve or [~metrics] needs it) and the flight recorder (with
   --trace-out), start the server and write its port file, run [f], then
   write the snapshot (JSONL, Prometheus) and the recorder dump.  [label]
   tags the snapshot and names the dump's reason. *)
let with_run_env ?(metrics = false) ~label o f =
  Option.iter Sinr_par.Pool.set_default_jobs o.jobs;
  let metrics =
    metrics || o.metrics_out <> None || o.prom_out <> None || o.serve <> None
  in
  List.iter (Option.iter probe_writable)
    [ o.metrics_out; o.prom_out; o.trace_out;
      (if o.serve <> None then o.serve_port_file else None) ];
  if metrics then begin
    Metrics.reset ();
    Metrics.set_enabled true
  end;
  if o.trace_out <> None then begin
    Recorder.clear ();
    Recorder.set_enabled true
  end;
  let server =
    Option.map (fun port -> start_server ?port_file:o.serve_port_file port)
      o.serve
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Http.stop server;
      Metrics.set_enabled false;
      Recorder.set_enabled false)
    f;
  if metrics then begin
    let snap = Metrics.snapshot () in
    Option.iter
      (fun path ->
        Sink.write_snapshot ~label path snap;
        Fmt.pr "[metrics written: %s]@." path)
      o.metrics_out;
    Option.iter
      (fun path ->
        Sink.write_file path (Sink.snapshot_to_prometheus snap);
        Fmt.pr "[prometheus written: %s]@." path)
      o.prom_out
  end;
  Option.iter
    (fun path ->
      let p = Recorder.dump ~path ~reason:label () in
      Fmt.pr "[trace written: %s]@." p)
    o.trace_out

let deployment ~seed ~n ~degree ~range =
  let config = Config.with_range ~range () in
  Workloads.uniform ~config (Rng.create seed) ~n ~target_degree:degree

let pp_profile (d : Workloads.deployment) =
  let p = d.Workloads.profile in
  Fmt.pr "deployment %s@." d.Workloads.name;
  Fmt.pr "  config        %a@." Config.pp (Sinr.config d.Workloads.sinr);
  Fmt.pr "  Lambda        %.2f@." p.Induced.lambda;
  Fmt.pr "  Delta(G1-e)   %d@." p.Induced.strong_degree;
  Fmt.pr "  D(G1-e)       %d@." p.Induced.strong_diameter;
  Fmt.pr "  D(G1-2e)      %d@." p.Induced.approx_diameter;
  Fmt.pr "  connected     %b@."
    (Sinr_graph.Components.is_connected p.Induced.strong)

(* A global protocol (smb, cons) cannot complete when the weak graph G1
   is disconnected: no message crosses between its components, so the
   run would only spin to its slot budget.  Such a deployment is refused
   before any slot runs, with exit 2. *)
let refuse_disconnected ~cmd (d : Workloads.deployment) =
  let k = Sinr_graph.Components.count d.Workloads.profile.Induced.weak in
  if k > 1 then begin
    Fmt.epr "sinr_sim %s: weak graph G1 is disconnected (%d components); \
             no global protocol can complete@." cmd k;
    Stdlib.exit 2
  end

(* The standard instrumented workload of obs and profile-report: every
   even node broadcasts through Algorithm 11.1, run to the last ack.  The
   deployment is built here, before [with_run_env] arms telemetry, so a
   snapshot covers the returned run alone. *)
let acks_workload ~seed ~n ~degree ~range ~max_slots =
  let d = deployment ~seed ~n ~degree ~range in
  let senders = List.filter (fun v -> v mod 2 = 0) (List.init n Fun.id) in
  fun () ->
    ignore
      (Sinr_mac.Measure.acks d.Workloads.sinr
         ~rng:(Rng.create (seed + 4))
         ~senders ~max_slots)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run seed n degree range = pp_profile (deployment ~seed ~n ~degree ~range) in
  Cmd.v
    (Cmd.info "profile" ~doc:"Build a deployment and print its profile.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg)

(* ---------------- smb ---------------- *)

let smb_cmd =
  let run seed n degree range opts =
    with_run_env ~label:"smb" opts @@ fun () ->
    let d = deployment ~seed ~n ~degree ~range in
    pp_profile d;
    refuse_disconnected ~cmd:"smb" d;
    let budget = 40_000_000 in
    let ours =
      Sinr_proto.Global.smb d.Workloads.sinr
        ~rng:(Rng.create (seed + 1))
        ~source:0 ~max_slots:budget
    in
    (match ours.Sinr_proto.Global.completed with
     | Some t -> Fmt.pr "ours (Thm 12.7):   %d slots@." t
     | None ->
       Fmt.pr "ours (Thm 12.7):   timeout (%d/%d reached)@."
         ours.Sinr_proto.Global.reached n);
    let dgkn =
      Sinr_proto.Dgkn_broadcast.run d.Workloads.sinr
        ~rng:(Rng.create (seed + 2))
        ~source:0 ~max_slots:budget
    in
    (match dgkn.Sinr_proto.Dgkn_broadcast.completed with
     | Some t -> Fmt.pr "dgkn [14]:         %d slots@." t
     | None -> Fmt.pr "dgkn [14]:         timeout@.");
    let decay =
      Sinr_proto.Decay_flood.run d.Workloads.sinr
        ~rng:(Rng.create (seed + 3))
        ~source:0 ~max_slots:budget
    in
    match decay.Sinr_proto.Decay_flood.completed with
    | Some t -> Fmt.pr "decay-flood [32]:  %d slots@." t
    | None -> Fmt.pr "decay-flood [32]:  timeout@."
  in
  Cmd.v
    (Cmd.info "smb"
       ~doc:"Global single-message broadcast: ours vs the baselines.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg
          $ run_opts ())

(* ---------------- cons ---------------- *)

let cons_cmd =
  let crashes_arg =
    Arg.(value & opt int 0
         & info [ "crashes" ] ~docv:"K" ~doc:"Crash K nodes mid-run.")
  in
  let run seed n degree range crashes opts =
    with_run_env ~label:"cons" opts @@ fun () ->
    let d = deployment ~seed ~n ~degree ~range in
    pp_profile d;
    refuse_disconnected ~cmd:"cons" d;
    let rng = Rng.create (seed + 10) in
    let initial = Array.init n (fun _ -> Rng.bool rng) in
    let faults =
      if crashes = 0 then Sinr_engine.Fault.none
      else
        Sinr_engine.Fault.random_crashes (Rng.split rng ~key:1) ~n
          ~count:crashes ~horizon:10_000 ~protect:[]
    in
    let diameter = d.Workloads.profile.Induced.strong_diameter in
    let r =
      Sinr_proto.Global.cons d.Workloads.sinr ~rng:(Rng.split rng ~key:2)
        ~initial ~faults
        ~rounds_bound:(2 * (diameter + 1))
        ~max_slots:200_000_000
    in
    (match r.Sinr_proto.Global.completed with
     | Some t -> Fmt.pr "completed in %d slots@." t
     | None -> Fmt.pr "timeout@.");
    Fmt.pr "agreement=%b validity=%b deciders=%d crashed=%d@."
      r.Sinr_proto.Global.agreement r.Sinr_proto.Global.validity
      r.Sinr_proto.Global.deciders r.Sinr_proto.Global.crashed
  in
  Cmd.v
    (Cmd.info "cons" ~doc:"Network-wide consensus over the absMAC.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg $ crashes_arg
          $ run_opts ())

(* ---------------- approg ---------------- *)

let approg_cmd =
  let run seed n degree range opts =
    with_run_env ~label:"approg" opts @@ fun () ->
    let d = deployment ~seed ~n ~degree ~range in
    pp_profile d;
    let senders = List.filter (fun v -> v mod 2 = 0) (List.init n Fun.id) in
    let sched =
      Sinr_mac.Params.schedule
        (Sinr.config d.Workloads.sinr)
        ~lambda:d.Workloads.profile.Induced.lambda
        Sinr_mac.Params.default_approg
    in
    Fmt.pr "epoch layout: Phi=%d T=%d mis_rounds=%d data=%d epoch=%d slots@."
      sched.Sinr_mac.Params.phi sched.Sinr_mac.Params.t
      sched.Sinr_mac.Params.mis_rounds sched.Sinr_mac.Params.data_slots
      sched.Sinr_mac.Params.epoch_slots;
    let samples, machine =
      Sinr_mac.Measure.approx_progress_only d.Workloads.sinr
        ~rng:(Rng.create (seed + 4))
        ~senders
        ~max_slots:(6 * sched.Sinr_mac.Params.epoch_slots)
    in
    let ok = List.filter (fun s -> s.Sinr_mac.Measure.delay <> None) samples in
    Fmt.pr "listeners with a broadcasting G~-neighbor: %d@."
      (List.length samples);
    Fmt.pr "progressed: %d (%.0f%%), drops=%d@." (List.length ok)
      (100.
       *. float_of_int (List.length ok)
       /. float_of_int (max 1 (List.length samples)))
      (Sinr_mac.Approx_progress.drops_total machine);
    match List.filter_map (fun s -> s.Sinr_mac.Measure.delay) samples with
    | [] -> ()
    | ds ->
      let arr = Array.of_list (List.map float_of_int ds) in
      Fmt.pr "delays: %a@." Sinr_stats.Summary.pp
        (Sinr_stats.Summary.of_samples arr)
  in
  Cmd.v
    (Cmd.info "approg"
       ~doc:"Measure approximate progress of Algorithm 9.1 on a deployment.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg
          $ run_opts ())

(* ---------------- chaos ---------------- *)

(* One adversarial scenario (lib/chaos) on the uniform deployment: even
   nodes broadcast through the retry wrapper while the requested
   adversaries run; prints the degradation report.  The full sweep with
   curves is `sinr_sim exp chaos` (or bench/main.exe chaos). *)
let chaos_cmd =
  let jam_arg =
    Arg.(value & opt float 0.
         & info [ "jam" ] ~docv:"DUTY"
             ~doc:"Jamming duty-cycle in [0,1]: fraction of each 64-slot \
                   window jammed (noise x40) at a random phase.")
  in
  let fading_arg =
    Arg.(value & opt float 0.
         & info [ "fading" ] ~docv:"SIGMA"
             ~doc:"Log-normal fading: per-slot per-link gain multiplier \
                   exp($(docv)*N(0,1)).")
  in
  let crash_frac_arg =
    Arg.(value & opt float 0.
         & info [ "crash-frac" ] ~docv:"F"
             ~doc:"Crash a random $(docv) fraction of the nodes at random \
                   slots within the first f_ack window.")
  in
  let downtime_arg =
    Arg.(value & opt int 0
         & info [ "downtime" ] ~docv:"SLOTS"
             ~doc:"Crashed nodes recover after $(docv) slots (0 = never).")
  in
  let abort_rate_arg =
    Arg.(value & opt float 0.
         & info [ "abort-rate" ] ~docv:"P"
             ~doc:"Per-slot probability that each busy node's broadcast is \
                   adversarially aborted.")
  in
  let run seed n degree jam fading crash_frac downtime abort_rate opts =
    with_run_env ~label:"chaos" opts @@ fun () ->
    let spec =
      { Exp_chaos.clean with
        Exp_chaos.jam_duty = jam;
        fading_sigma = fading;
        crash_frac;
        crash_downtime = downtime;
        abort_rate }
    in
    let o = Exp_chaos.run_scenario ~n ~degree ~seed spec in
    Fmt.pr "adversaries: jam=%.2f fading=%.2f crash=%.2f(down %d) abort=%.3f@."
      jam fading crash_frac downtime abort_rate;
    Fmt.pr "acked %d/%d (gave up %d, unfinished %d) in %d slots@."
      o.Exp_chaos.o_acked o.Exp_chaos.o_senders o.Exp_chaos.o_gave_up
      o.Exp_chaos.o_unfinished o.Exp_chaos.o_slots;
    if o.Exp_chaos.o_acked > 0 then
      Fmt.pr "ack latency: mean %.1f max %d slots@." o.Exp_chaos.o_ack_mean
        o.Exp_chaos.o_ack_max;
    Fmt.pr "approx progress: %d/%d listeners" o.Exp_chaos.o_approg_done
      o.Exp_chaos.o_approg_watched;
    if o.Exp_chaos.o_approg_done > 0 then
      Fmt.pr ", mean %.1f slots" o.Exp_chaos.o_approg_mean;
    Fmt.pr "@.";
    Fmt.pr "retries: %d reissues, %d timeouts; chaos: %d forced aborts, %d \
            crashes@."
      o.Exp_chaos.o_reissues o.Exp_chaos.o_timeouts
      o.Exp_chaos.o_forced_aborts o.Exp_chaos.o_crashes;
    Fmt.pr "spec: %d late acks, %d aborted, %d/%d progress violations@."
      o.Exp_chaos.o_late_acks o.Exp_chaos.o_aborted
      o.Exp_chaos.o_prog_violations o.Exp_chaos.o_prog_checks
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the absMAC under adversarial channel conditions and \
             faults, and report the degradation.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ jam_arg $ fading_arg
          $ crash_frac_arg $ downtime_arg $ abort_rate_arg $ run_opts ())

(* ---------------- exp ---------------- *)

let exp_cmd =
  let ids = List.map fst Catalog.experiments in
  let id_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID"
             ~doc:("Experiment id (" ^ String.concat ", " ids ^ ")."))
  in
  let run id opts =
    match List.assoc_opt id Catalog.experiments with
    | Some f -> with_run_env ~label:("exp:" ^ id) opts f
    | None ->
      Fmt.epr "unknown experiment %S; known: %s@." id (String.concat " " ids);
      exit 2
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run a named experiment (see DESIGN.md index).")
    Term.(const run $ id_arg $ run_opts ())

(* ---------------- obs ---------------- *)

(* Run the full Algorithm 11.1 stack under telemetry on a standard workload
   (simultaneous broadcasts from every even node, run to the last ack) and
   print the snapshot.  This exercises every instrumented layer: engine
   slot accounting, B.1 acknowledgments on even slots, the Algorithm 9.1
   epoch machinery on odd slots, and the MAC's ack bookkeeping. *)
let obs_cmd =
  let format_arg =
    Arg.(value
         & opt (enum [ ("pretty", `Pretty); ("json", `Json); ("prom", `Prom) ])
             `Pretty
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Snapshot rendering: $(b,pretty) (aligned table), \
                   $(b,json) (one JSONL object), or $(b,prom) \
                   (Prometheus text exposition).")
  in
  let slots_arg =
    Arg.(value & opt int 200_000
         & info [ "max-slots" ] ~docv:"SLOTS"
             ~doc:"Slot budget for the instrumented workload.")
  in
  let run seed n degree range format max_slots opts =
    let workload = acks_workload ~seed ~n ~degree ~range ~max_slots in
    with_run_env ~metrics:true ~label:"obs" opts @@ fun () ->
    workload ();
    let snap = Metrics.snapshot () in
    match format with
    | `Pretty -> Fmt.pr "%a" Sink.pp_snapshot snap
    | `Json -> print_string (Sink.snapshot_to_jsonl ~label:"obs" snap)
    | `Prom -> print_string (Sink.snapshot_to_prometheus snap)
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:"Run an instrumented absMAC workload and print the telemetry \
             snapshot.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg $ format_arg
          $ slots_arg $ run_opts ~jobs:false ())

(* ---------------- trace-report ---------------- *)

(* Offline analysis of a flight-recorder dump: per-message f_ack / f_approg
   latencies with percentiles against the bounds the MAC recorded into the
   mac.bcast span attributes, plus the Algorithm 9.1 epoch/phase timeline
   for any message that exceeded them.  --strict turns flagged messages
   into a non-zero exit for CI. *)
let trace_report_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Flight-recorder JSONL dump (from --trace-out or a \
                   flight-*.jsonl written on violation/crash).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit 1 when any message exceeds its ack or progress \
                   bound.")
  in
  let job_filter_arg =
    Arg.(value & opt (some int) None
         & info [ "job" ] ~docv:"ID"
             ~doc:"Only analyze spans/events carrying a job_id attribute \
                   equal to $(docv) (daemon jobs stamp every span with \
                   their id).")
  in
  (* Daemon attempts stamp every span/event with a job_id; --job narrows
     a mixed dump (several jobs through one process) to one job's story. *)
  let filter_job id (tr : Trace_report.trace) =
    let has fields =
      match List.assoc_opt "job_id" fields with
      | Some j -> Json.to_int j = Some id
      | None -> false
    in
    { tr with
      Trace_report.spans =
        List.filter
          (fun (s : Trace_report.span_rec) -> has s.Trace_report.s_attrs)
          tr.Trace_report.spans;
      events =
        List.filter
          (fun (e : Trace_report.event_rec) -> e.Trace_report.e_job = Some id)
          tr.Trace_report.events }
  in
  let run file strict job =
    match Trace_report.load_file file with
    | exception Sys_error msg ->
      Fmt.epr "sinr_sim trace-report: %s@." msg;
      exit 2
    | exception Json.Parse_error msg ->
      Fmt.epr "sinr_sim trace-report: %s: malformed JSON: %s@." file msg;
      exit 2
    | exception Failure msg ->
      Fmt.epr "sinr_sim trace-report: %s@." msg;
      exit 2
    | trace ->
      let trace =
        match job with None -> trace | Some id -> filter_job id trace
      in
      let r = Trace_report.analyze trace in
      Fmt.pr "%a" Trace_report.pp r;
      if strict && Trace_report.flagged r > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:"Analyze a flight-recorder dump: per-message ack/progress \
             latency percentiles against the Thm 5.1 / Thm 9.1 bounds.")
    Term.(const run $ file_arg $ strict_arg $ job_filter_arg)

(* ---------------- phys ---------------- *)

(* Self-check of the physics fast path (DESIGN.md "Physics fast path"):
   resolve the same random slots through the cached kernel and through the
   seed kernel (Sinr.resolve_reference) and demand bit-identical outcomes;
   then a small throughput sample.  Exits 1 on any mismatch, so
   `make phys-smoke` can gate CI on it. *)
let phys_cmd =
  let cases_arg =
    Arg.(value & opt int 80
         & info [ "cases" ] ~docv:"K"
             ~doc:"Number of random slots to check for equivalence.")
  in
  let run seed n degree range cases opts =
    with_run_env ~label:"phys" opts @@ fun () ->
    let d = deployment ~seed ~n ~degree ~range in
    let sinr = d.Workloads.sinr in
    let n = Sinr.n sinr in
    let rng = Rng.create (seed + 20) in
    let slot_senders case =
      let r = Rng.split rng ~key:case in
      List.filter (fun _ -> Rng.bernoulli r 0.3) (List.init n Fun.id)
    in
    let mismatches = ref 0 and checked = ref 0 in
    for case = 0 to cases - 1 do
      let senders = slot_senders case in
      if senders <> [] then begin
        incr checked;
        if Sinr.resolve sinr ~senders <> Sinr.resolve_reference sinr ~senders
        then incr mismatches
      end
    done;
    Fmt.pr "equivalence: %d/%d slots bit-identical to the seed kernel \
            (%d mismatch%s)@."
      (!checked - !mismatches) !checked !mismatches
      (if !mismatches = 1 then "" else "es");
    (* Throughput sample: cached kernel vs seed kernel on one busy slot. *)
    let senders = List.filter (fun v -> v mod 4 = 0) (List.init n Fun.id) in
    let rate f =
      f ();
      let rec go reps =
        let t = Unix.gettimeofday () in
        for _ = 1 to reps do f () done;
        let dt = Unix.gettimeofday () -. t in
        if dt >= 0.2 then float_of_int reps /. dt else go (reps * 4)
      in
      go 1
    in
    let cached = rate (fun () -> ignore (Sinr.resolve sinr ~senders)) in
    let reference =
      rate (fun () -> ignore (Sinr.resolve_reference sinr ~senders))
    in
    Fmt.pr "throughput: n=%d |S|=%d cached %.0f slots/s, seed %.0f slots/s \
            (%.1fx)@."
      n (List.length senders) cached reference (cached /. reference);
    let cache = Sinr.gain_cache sinr in
    Fmt.pr "gain cache: %d/%d rows resident, %d bytes (cap admits %d rows)@."
      (Gain_cache.rows_cached cache)
      n
      (Gain_cache.bytes_cached cache)
      (Gain_cache.max_rows cache);
    if !mismatches > 0 then begin
      Fmt.epr "sinr_sim phys: fast path diverged from the seed kernel@.";
      Stdlib.exit 1
    end
  in
  Cmd.v
    (Cmd.info "phys"
       ~doc:"Check the physics fast path against the seed kernel (exit 1 \
             on divergence) and sample its throughput.")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg $ cases_arg
          $ run_opts ())

(* ---------------- scale ---------------- *)

(* The million-node smoke (DESIGN.md §15): stream a uniform deployment
   straight into position columns, run the engine on the auto-installed
   sparse resolution path, and print slot throughput and the process RSS
   high-water mark.  --assert-slots-per-s / --assert-rss-mb turn the two
   numbers into exit-1 gates, so `make scale-smoke` can hold the scale
   floor in CI. *)
let scale_cmd =
  let scale_n_arg =
    Arg.(value & opt int 100_000
         & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let slots_arg =
    Arg.(value & opt int 50
         & info [ "slots" ] ~docv:"S" ~doc:"Slots to run.")
  in
  let assert_rate_arg =
    Arg.(value & opt (some float) None
         & info [ "assert-slots-per-s" ] ~docv:"RATE"
             ~doc:"Exit 1 unless the run sustains at least $(docv) slots \
                   per second.")
  in
  let assert_rss_arg =
    Arg.(value & opt (some float) None
         & info [ "assert-rss-mb" ] ~docv:"MB"
             ~doc:"Exit 1 if the process peak RSS (VmHWM) exceeds $(docv) \
                   MiB.")
  in
  let run seed n slots assert_rate assert_rss =
    if n < 2 then begin
      Fmt.epr "sinr_sim scale: --n must be at least 2@.";
      Stdlib.exit 2
    end;
    if slots < 1 then begin
      Fmt.epr "sinr_sim scale: --slots must be positive@.";
      Stdlib.exit 2
    end;
    let r = Exp_scale.run ~seed ~n ~slots in
    let rate = r.Exp_scale.slots_per_s in
    let rss_mb = Procstat.peak_rss_mb () in
    Fmt.pr
      "scale: n=%d %d slots in %.2fs (%.1f slots/s)   setup %.2fs   tx %d \
       deliveries %d   sparse %b   peak RSS %s@."
      n slots r.Exp_scale.run_s rate r.Exp_scale.setup_s r.Exp_scale.tx
      r.Exp_scale.deliveries r.Exp_scale.sparse
      (match rss_mb with
       | Some mb -> Fmt.str "%.0f MiB" mb
       | None -> "n/a");
    Option.iter
      (fun floor ->
        if rate < floor then begin
          Fmt.epr "sinr_sim scale: %.1f slots/s under the %.1f floor@." rate
            floor;
          Stdlib.exit 1
        end)
      assert_rate;
    Option.iter
      (fun cap ->
        match rss_mb with
        | None ->
          Fmt.epr "sinr_sim scale: --assert-rss-mb given but /proc is \
                   unavailable@.";
          Stdlib.exit 2
        | Some mb ->
          if mb > cap then begin
            Fmt.epr "sinr_sim scale: peak RSS %.0f MiB over the %.0f MiB \
                     cap@." mb cap;
            Stdlib.exit 1
          end)
      assert_rss
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Run the large-n engine workload (streamed placement, sparse \
             resolution) and gate its slot throughput and peak RSS.")
    Term.(const run $ seed_arg $ scale_n_arg $ slots_arg $ assert_rate_arg
          $ assert_rss_arg)

(* ---------------- serve ---------------- *)

(* Sweep-as-a-service: the lib/serve daemon behind the embedded HTTP
   server.  The accept domain answers the /jobs API (and the builtin
   /metrics /healthz /spans); this main loop runs the queued jobs one at a
   time through the checkpointing runner.  SIGINT/SIGTERM request a drain:
   the in-flight chunk of cells finishes, the checkpoint lands, the
   running job returns to Queued, the flight recorder is dumped, and the
   process exits 0 — a later `sinr_sim serve` in the same --dir resumes
   the job bit-identically from its checkpoint. *)
let serve_cmd =
  let port_arg =
    Arg.(value & opt int 0
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Listen on 127.0.0.1:$(docv); 0 (the default) lets the \
                   kernel pick a free port — read it from \
                   $(b,--serve-port-file).")
  in
  let dir_arg =
    Arg.(value & opt string "."
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory for job checkpoints and recorder dumps \
                   (created if missing).")
  in
  let queue_cap_arg =
    Arg.(value & opt int 8
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Admission cap: queued + running jobs beyond $(docv) are \
                   rejected with 429.")
  in
  let checkpoint_arg =
    Arg.(value & opt int 4
         & info [ "checkpoint-every" ] ~docv:"CELLS"
             ~doc:"Snapshot a running job's completed cells every $(docv) \
                   cells (atomic temp+rename JSONL).")
  in
  let wal_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "wal-dir" ] ~docv:"DIR"
             ~doc:"Directory for the write-ahead log (default: $(b,--dir)). \
                   Restarting with the same $(docv) replays the WAL and \
                   resumes in-flight jobs from their checkpoints.")
  in
  let deadline_arg =
    Arg.(value & opt float 0.
         & info [ "job-deadline" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget per job attempt; past it the attempt \
                   counts as a strike and is retried with backoff. 0 (the \
                   default) disables the deadline.")
  in
  let cell_timeout_arg =
    Arg.(value & opt float 0.
         & info [ "cell-timeout" ] ~docv:"SECONDS"
             ~doc:"Budget per sweep cell (enforced at cell completion); a \
                   cell past it fails the attempt. 0 (the default) \
                   disables the budget.")
  in
  let max_retries_arg =
    Arg.(value & opt int 2
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Failed attempts beyond the first before a job is \
                   quarantined (parked as failed with a flight-recorder \
                   dump).")
  in
  let run port port_file dir wal_dir queue_cap checkpoint_every deadline
      cell_timeout max_retries jobs =
    Option.iter Sinr_par.Pool.set_default_jobs jobs;
    let wal_dir = Option.value wal_dir ~default:dir in
    List.iter
      (fun d ->
        try Unix.mkdir d 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
          Fmt.epr "sinr_sim serve: cannot create %s: %s@." d
            (Unix.error_message e);
          Stdlib.exit 1)
      [ dir; wal_dir ];
    Option.iter probe_writable port_file;
    Metrics.reset ();
    Metrics.set_enabled true;
    Recorder.clear ();
    Recorder.configure ~dir ();
    Recorder.set_enabled true;
    (let armed = Sinr_chaos.Chaos.Failpoint.from_env () in
     if armed > 0 then Fmt.pr "[failpoints armed from env: %d]@." armed);
    let policy =
      { Sinr_serve.Supervisor.default_policy with
        Sinr_serve.Supervisor.deadline_s = deadline;
        cell_timeout_s = cell_timeout;
        max_retries }
    in
    let daemon =
      Sinr_serve.Daemon.create ~dir ~wal_dir ~max_queued:queue_cap
        ~checkpoint_every ~policy ()
    in
    (match Sinr_serve.Daemon.wal_recovery daemon with
     | `Clean -> ()
     | `Torn_tail -> Fmt.pr "[wal: torn final record skipped]@."
     | `Quarantined path ->
       Fmt.pr "[wal: corrupt log quarantined to %s; sound prefix kept]@." path);
    let recovered = Sinr_serve.Daemon.recovered daemon in
    if recovered > 0 then
      Fmt.pr "[wal: %d job%s recovered; resuming from checkpoints]@." recovered
        (if recovered = 1 then "" else "s");
    let server =
      start_server
        ~handler:(Sinr_serve.Daemon.handler daemon)
        ~stream_handler:(Sinr_serve.Daemon.stream_handler daemon)
        ~banner:"serve: POST/GET /jobs, GET /jobs/:id[/table|/metrics|/events], \
                 DELETE /jobs/:id, GET /events + /metrics /healthz /readyz \
                 /spans"
        ?port_file port
    in
    let drain _ = Sinr_serve.Daemon.request_drain daemon in
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    let reported = Hashtbl.create 16 in
    let report_finished () =
      List.iter
        (fun (j : Sinr_serve.Queue.job) ->
          if Sinr_serve.Job_state.terminal j.Sinr_serve.Queue.state
             && not (Hashtbl.mem reported j.Sinr_serve.Queue.id)
          then begin
            Hashtbl.replace reported j.Sinr_serve.Queue.id ();
            Fmt.pr "[job %d %s: %d/%d cells]@." j.Sinr_serve.Queue.id
              (Sinr_serve.Queue.state_name j.Sinr_serve.Queue.state)
              j.Sinr_serve.Queue.cells_done j.Sinr_serve.Queue.cells_total
          end)
        (Sinr_serve.Queue.jobs (Sinr_serve.Daemon.queue daemon))
    in
    while not (Sinr_serve.Daemon.draining daemon) do
      if Sinr_serve.Daemon.step daemon then report_finished ()
      else (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    report_finished ();
    let dump =
      Recorder.dump
        ~path:(Filename.concat dir "serve-drain.jsonl")
        ~reason:"serve-drain" ()
    in
    Fmt.pr "[drained; trace written: %s]@." dump;
    Http.stop server;
    Sinr_serve.Daemon.close daemon;
    Metrics.set_enabled false;
    Recorder.set_enabled false
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sweep daemon: accept sweep specs over HTTP \
             (POST /jobs), run them under supervision (WAL, deadlines, \
             retries, quarantine), drain gracefully on SIGINT/SIGTERM and \
             resume bit-identically after a crash.")
    Term.(const run $ port_arg $ serve_port_file_arg $ dir_arg $ wal_dir_arg
          $ queue_cap_arg $ checkpoint_arg $ deadline_arg $ cell_timeout_arg
          $ max_retries_arg $ jobs_arg)

(* ---------------- watch ---------------- *)

(* Live view of one daemon job, driven purely by its SSE event stream
   (GET /jobs/:id/events): progress lines, rows as they land, retries
   and an ETA go to stderr; once the job is done the final table —
   byte-identical to GET /jobs/:id/table — is printed on stdout.  Exit
   codes: 0 done, 1 failed/quarantined/cancelled, 2 stream trouble. *)
let watch_cmd =
  let job_arg =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"JOB" ~doc:"Job id to watch.")
  in
  let port_arg =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port.")
  in
  let port_file_arg =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"PATH"
             ~doc:"Read the daemon port from $(docv) (the file written by \
                   $(b,sinr_sim serve --serve-port-file)).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Daemon host.")
  in
  let run job port port_file host =
    let port =
      match (port, port_file) with
      | Some p, _ -> p
      | None, Some path -> (
        match
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> input_line ic)
        with
        | line -> (
          match int_of_string_opt (String.trim line) with
          | Some p -> p
          | None ->
            Fmt.epr "sinr_sim watch: %s does not contain a port@." path;
            Stdlib.exit 2)
        | exception (Sys_error _ | End_of_file) ->
          Fmt.epr "sinr_sim watch: cannot read port from %s@." path;
          Stdlib.exit 2)
      | None, None ->
        Fmt.epr "sinr_sim watch: one of --port / --port-file is required@.";
        Stdlib.exit 2
    in
    let t0 = Unix.gettimeofday () in
    let total = ref 0 and cells_done = ref 0 and base = ref 0 in
    let sync_done body =
      match Option.bind (Json.member "cells_done" body) Json.to_int with
      | Some d -> cells_done := max !cells_done d
      | None -> ()
    in
    let eta () =
      let progressed = !cells_done - !base in
      if progressed > 0 && !total > !cells_done then
        let per_cell = (Unix.gettimeofday () -. t0) /. float_of_int progressed in
        Printf.sprintf ", eta %.0fs" (per_cell *. float_of_int (!total - !cells_done))
      else ""
    in
    let str k body =
      match Json.member k body with Some (Json.Str s) -> Some s | _ -> None
    in
    let on_event ~typ body =
      match typ with
      | "hello" ->
        (match Option.bind (Json.member "cells_total" body) Json.to_int with
         | Some t -> total := t
         | None -> ());
        sync_done body;
        base := !cells_done;
        Fmt.epr "[watch job %d: %s, %d/%d cells, %s]@." job
          (Option.value ~default:"?" (str "exp" body))
          !cells_done !total
          (Option.value ~default:"?" (str "state" body))
      | "cell" ->
        if str "phase" body = Some "done" then incr cells_done
      | "checkpoint" ->
        sync_done body;
        Fmt.epr "[%d/%d cells%s]@." !cells_done !total (eta ())
      | "row" -> (
        match
          ( Option.bind (Json.member "param" body) Json.to_int,
            Json.member "cells" body )
        with
        | Some p, Some (Json.List cs) ->
          Fmt.epr "[row param=%d: %d cells]@." p (List.length cs)
        | _ -> ())
      | "retry" ->
        Fmt.epr "[retry: attempt %d failed (%s)]@."
          (Option.value ~default:0
             (Option.bind (Json.member "attempt" body) Json.to_int))
          (Option.value ~default:"?" (str "error" body))
      | "quarantine" ->
        Fmt.epr "[quarantined: %s]@."
          (Option.value ~default:"?" (str "reason" body))
      | "state" -> (
        sync_done body;
        match str "state" body with
        | Some s -> Fmt.epr "[state: %s, %d/%d cells]@." s !cells_done !total
        | None -> ())
      | _ -> ()
    in
    match Sinr_serve.Watch.watch ~host ~on_event ~port ~job () with
    | Sinr_serve.Watch.Completed table ->
      print_string (Json.to_string_json table ^ "\n")
    | Sinr_serve.Watch.Failed { quarantined; error } ->
      Fmt.epr "sinr_sim watch: job %d %s: %s@." job
        (if quarantined then "quarantined" else "failed")
        error;
      Stdlib.exit 1
    | Sinr_serve.Watch.Cancelled ->
      Fmt.epr "sinr_sim watch: job %d cancelled@." job;
      Stdlib.exit 1
    | Sinr_serve.Watch.Stream_error msg ->
      Fmt.epr "sinr_sim watch: %s@." msg;
      Stdlib.exit 2
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Follow one daemon job live over its SSE event stream; print \
             progress to stderr and, once done, the final table (identical \
             to GET /jobs/:id/table) to stdout. Exits 1 on \
             failure/quarantine/cancel, 2 on stream trouble.")
    Term.(const run $ job_arg $ port_arg $ port_file_arg $ host_arg)

(* ---------------- profile-report ---------------- *)

(* Where does a slot's wall time go?  Runs the standard instrumented
   workload (even nodes broadcast through Algorithm 11.1 to the last ack)
   with the slot-phase profiler armed, then prints the per-stage table —
   share of slot time, p50/p99 per stage — aggregated from the
   [profile.*.ns] histograms.  The same rows flow through --metrics-out /
   --prometheus-out / --serve like any other metric. *)
let profile_report_cmd =
  let slots_arg =
    Arg.(value & opt int 50_000
         & info [ "max-slots" ] ~docv:"SLOTS"
             ~doc:"Slot budget for the profiled workload.")
  in
  let run seed n degree range max_slots opts =
    let workload = acks_workload ~seed ~n ~degree ~range ~max_slots in
    with_run_env ~metrics:true ~label:"profile-report" opts @@ fun () ->
    Profile.with_enabled workload;
    match Profile.report () with
    | None ->
      Fmt.epr "sinr_sim profile-report: no slots were profiled@.";
      Stdlib.exit 1
    | Some r -> Fmt.pr "%a" Profile.pp_report r
  in
  Cmd.v
    (Cmd.info "profile-report"
       ~doc:"Profile an instrumented absMAC workload and print the \
             per-stage slot-time table (share, p50, p99).")
    Term.(const run $ seed_arg $ n_arg $ degree_arg $ range_arg $ slots_arg
          $ run_opts ~trace:false ())

let () =
  let doc = "Local broadcast layer for the SINR network model — simulator" in
  let info = Cmd.info "sinr_sim" ~version:Build_info.version ~doc in
  (* Cmdliner renders the one-letter node-count option as [-n]; the
     double-dash spelling [--n] is common enough to accept as an alias. *)
  let argv = Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [ profile_cmd; smb_cmd; cons_cmd; approg_cmd; chaos_cmd; exp_cmd;
            obs_cmd; phys_cmd; scale_cmd; serve_cmd; watch_cmd;
            trace_report_cmd; profile_report_cmd ]))
