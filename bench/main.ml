(* Benchmark harness: regenerates every table and figure of the paper's
   contribution as an empirical scaling experiment (see DESIGN.md's
   per-experiment index), plus Bechamel micro-benchmarks of the simulation
   kernels.

   Usage:
     main.exe [--jobs N]           run everything
     main.exe [--jobs N] <id> ...  run selected experiments
     main.exe diff --baseline PATH [--current PATH] [--tolerance T]
              [--ignore GLOB]...   regression gate: compare a fresh
              BENCH_*.json against a committed baseline; exit 1 on any
              regressed or missing metric (see lib/obs/bench_diff.mli)
   ids: table1-ack fig1-progress-lb table1-approg thm8-decay table2-smb
        table1-mmb table1-cons ablation mac-compare capacity chaos micro
        par-bench phys scale trace-overhead metrics-overhead

   --jobs N sizes the Sinr_par domain pool the experiments' sweeps run on
   (default: SINR_JOBS, else Domain.recommended_domain_count (); 1 forces
   the sequential path).  A failing experiment no longer loses the run:
   its error is reported, its status gauge records the failure, and the
   remaining experiments plus the BENCH_obs.json snapshot still happen.
   The runner's wall clocks (pool size, per-experiment times, the total)
   go to stderr, so the experiments' stdout is deterministic: `make
   tables-diff` compares it with bench/baselines/tables.txt. *)

open Sinr_geom
open Sinr_phys
open Sinr_expt
open Sinr_par

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot kernels                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  Report.section "micro: Bechamel kernel benchmarks";
  let open Bechamel in
  let open Toolkit in
  (* Kernel 1: one SINR slot resolution, 200 nodes / 50 senders. *)
  let resolve_kernel =
    let rng = Rng.create 1 in
    let pts =
      Placement.uniform rng ~n:200 ~box:(Sinr_geom.Box.square ~side:60.)
        ~min_dist:1.
    in
    let sinr = Sinr.create Config.default pts in
    let senders = List.init 50 (fun i -> i * 4) in
    Test.make ~name:"sinr_resolve_200n_50tx"
      (Staged.stage (fun () -> ignore (Sinr.resolve sinr ~senders)))
  in
  (* Kernel 2: strong-graph construction for 300 nodes. *)
  let induced_kernel =
    let rng = Rng.create 2 in
    let pts =
      Placement.uniform rng ~n:300 ~box:(Sinr_geom.Box.square ~side:80.)
        ~min_dist:1.
    in
    Test.make ~name:"induced_strong_300n"
      (Staged.stage (fun () -> ignore (Induced.strong Config.default pts)))
  in
  (* Kernel 3: a full modified-MIS run on a 100-node disc graph. *)
  let mis_kernel =
    let rng = Rng.create 3 in
    let pts =
      Placement.uniform rng ~n:100 ~box:(Sinr_geom.Box.square ~side:35.)
        ~min_dist:1.
    in
    let g =
      Sinr_graph.Graph.of_predicate ~n:100 (fun u v ->
          Point.dist pts.(u) pts.(v) <= 4.)
    in
    let participants = List.init 100 Fun.id in
    Test.make ~name:"sw_mis_100n"
      (Staged.stage (fun () ->
           let labels =
             Sinr_mis.Labels.draw (Rng.create 9) ~n:100 ~participants ~bits:12
           in
           let mis =
             Sinr_mis.Sw_mis.create ~n:100 ~participants ~labels
               ~label_bits:12 ~stages:2
           in
           Sinr_mis.Sw_mis.run_congest g mis))
  in
  (* Kernel 4: one combined-MAC slot on a 60-node network with 8 ongoing
     broadcasts. *)
  let mac_kernel =
    let rng = Rng.create 4 in
    let pts =
      Placement.uniform rng ~n:60 ~box:(Sinr_geom.Box.square ~side:30.)
        ~min_dist:1.
    in
    let sinr = Sinr.create Config.default pts in
    let mac = Sinr_mac.Combined_mac.create sinr ~rng:(Rng.create 5) in
    List.iter
      (fun v -> ignore (Sinr_mac.Combined_mac.bcast mac ~node:v ~data:v))
      [ 0; 7; 14; 21; 28; 35; 42; 49 ];
    Test.make ~name:"combined_mac_slot_60n"
      (Staged.stage (fun () -> Sinr_mac.Combined_mac.step mac))
  in
  (* One kernel per paper table/figure: the inner loop each experiment
     spends its time in. *)
  let fig1_kernel =
    let _, tl = Sinr_expt.Workloads.fig1 ~delta:16 in
    let sinr =
      Sinr.create
        (Config.with_range ~range:(160. /. 0.9) ())
        tl.Placement.points
    in
    Test.make ~name:"fig1_resolve_1tx"
      (Staged.stage (fun () ->
           ignore (Sinr.resolve sinr ~senders:[ tl.Placement.senders.(0) ])))
  in
  let ack_kernel =
    let rng = Rng.create 6 in
    let d, st = Sinr_expt.Workloads.star rng ~delta:24 in
    let hm =
      Sinr_mac.Hm_ack.create Sinr_mac.Params.default_ack
        ~lambda:d.Sinr_expt.Workloads.profile.Induced.lambda
        ~n:(Sinr.n d.Sinr_expt.Workloads.sinr)
        ~rng:(Rng.create 7)
    in
    Array.iter
      (fun v ->
        Sinr_mac.Hm_ack.start hm ~node:v
          { Sinr_mac.Events.origin = v; seq = 0; data = 0 })
      st.Placement.leaves;
    Test.make ~name:"table1_ack_hm_slot_24tx"
      (Staged.stage (fun () ->
           Array.iter
             (fun v -> ignore (Sinr_mac.Hm_ack.decide hm ~node:v))
             st.Placement.leaves))
  in
  let approg_kernel =
    let rng = Rng.create 8 in
    let pts =
      Placement.uniform rng ~n:80 ~box:(Sinr_geom.Box.square ~side:30.)
        ~min_dist:1.
    in
    let lambda = Induced.lambda Config.default pts in
    let m =
      Sinr_mac.Approx_progress.create Sinr_mac.Params.default_approg
        Config.default ~lambda ~n:80 ~rng:(Rng.create 9)
    in
    for v = 0 to 39 do
      Sinr_mac.Approx_progress.start m ~node:(v * 2)
        { Sinr_mac.Events.origin = v * 2; seq = 0; data = 0 }
    done;
    Test.make ~name:"table1_approg_slot_80n"
      (Staged.stage (fun () ->
           for v = 0 to 79 do
             ignore (Sinr_mac.Approx_progress.decide m ~node:v)
           done;
           ignore (Sinr_mac.Approx_progress.end_slot m)))
  in
  let decay_kernel =
    let rng = Rng.create 10 in
    let d, tb = Sinr_expt.Workloads.two_balls rng ~delta:64 in
    let n = Sinr.n d.Sinr_expt.Workloads.sinr in
    let decay = Sinr_mac.Decay.create ~n_tilde:256 ~n ~rng:(Rng.create 11) in
    Array.iter
      (fun v ->
        Sinr_mac.Decay.start decay ~node:v ~slot:0
          { Sinr_mac.Events.origin = v; seq = 0; data = 0 })
      tb.Placement.ball2;
    let slot = ref 0 in
    Test.make ~name:"thm8_decay_slot_64tx"
      (Staged.stage (fun () ->
           incr slot;
           for v = 0 to n - 1 do
             ignore (Sinr_mac.Decay.decide decay ~node:v ~slot:!slot)
           done))
  in
  let smb_kernel =
    let rng = Rng.create 12 in
    let pts =
      Placement.uniform rng ~n:40 ~box:(Sinr_geom.Box.square ~side:26.)
        ~min_dist:1.
    in
    let sinr = Sinr.create Config.default pts in
    let mac = Sinr_mac.Combined_mac.create sinr ~rng:(Rng.create 13) in
    let proto = Sinr_proto.Bmmb.create (Sinr_proto.Mac_driver.of_combined mac) in
    Sinr_proto.Bmmb.arrive proto ~node:0 ~msg:1;
    Test.make ~name:"table2_smb_bmmb_step_40n"
      (Staged.stage (fun () -> Sinr_proto.Bmmb.step proto))
  in
  let cons_kernel =
    let rng = Rng.create 14 in
    let pts =
      Placement.uniform rng ~n:30 ~box:(Sinr_geom.Box.square ~side:22.)
        ~min_dist:1.
    in
    let sinr = Sinr.create Config.default pts in
    let mac = Sinr_mac.Combined_mac.create sinr ~rng:(Rng.create 15) in
    let proto =
      Sinr_proto.Consensus.create
        (Sinr_proto.Mac_driver.of_combined mac)
        ~initial:(Array.init 30 (fun v -> v mod 2 = 0))
        ~rounds_bound:8
    in
    Test.make ~name:"table1_cons_step_30n"
      (Staged.stage (fun () -> Sinr_proto.Consensus.step proto))
  in
  let tests =
    Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
      [ resolve_kernel; induced_kernel; mis_kernel; mac_kernel; fig1_kernel;
        ack_kernel; approg_kernel; decay_kernel; smb_kernel; cons_kernel ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
   | None -> print_endline "no results"
   | Some tbl ->
     let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
     List.iter
       (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> Fmt.pr "%-34s %12.0f ns/run@." name est
         | Some _ | None -> Fmt.pr "%-34s (no estimate)@." name)
       (List.sort compare rows))

(* ------------------------------------------------------------------ *)
(* par-bench: sequential-vs-parallel wall clocks -> BENCH_parallel.json *)
(* ------------------------------------------------------------------ *)

(* Two Monte-Carlo-heavy workloads, each timed at jobs=1 and at the
   parallel width (>= 4 per the perf-trajectory contract; honest numbers
   either way — on a single-core host the speedup gauge simply reports
   what the hardware allows).  Telemetry stays off so the clocks measure
   the kernels, and the snapshot is assembled by hand so the file carries
   exactly the par.bench.* gauges. *)
let par_bench_path = "BENCH_parallel.json"

let reliability_workload ~jobs () =
  let rng = Rng.create 41 in
  let pts =
    Placement.uniform rng ~n:260 ~box:(Sinr_geom.Box.square ~side:70.)
      ~min_dist:1.
  in
  let sinr = Sinr.create Config.default pts in
  let est =
    Reliability.estimate ~trials:3_000 ~jobs sinr (Rng.split rng ~key:1)
      ~set:(List.init 260 Fun.id) ~p:0.25 ~mu:0.01
  in
  ignore (Reliability.graph est)

let ack_sweep_workload ~jobs () =
  let prev = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs prev) @@ fun () ->
  ignore
    (Exp_ack.run ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ]
       ~deltas:[ 16; 32; 48; 64 ] ())

let par_bench () =
  Report.section "par-bench: sequential vs parallel wall clock";
  let par_jobs = max 4 (Pool.default_jobs ()) in
  let cores = Domain.recommended_domain_count () in
  (* Domain.recommended_domain_count is the honest parallel width of the
     host.  On a 1-CPU host the jobs=N clocks only measure timesharing
     overhead, so the speedup curve is noise: say so and record the
     jobs=1 clocks only, rather than a misleading "speedup". *)
  let single_cpu = cores <= 1 in
  if single_cpu then
    Fmt.pr
      "[par-bench: 1-CPU host (Domain.recommended_domain_count = %d) — \
       speedup curve not meaningful; recording jobs=1 clocks only]@."
      cores
  else if par_jobs > cores then
    Fmt.epr
      "[par-bench: %d jobs exceed the %d recommended cores — parallel \
       clocks will understate the speedup]@."
      par_jobs cores;
  let time f =
    let t = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t
  in
  let gauges =
    ref
      [ ("par.bench.jobs", float_of_int par_jobs);
        ("par.bench.cores", float_of_int cores);
        ( "par.bench.recommended_domain_count",
          float_of_int (Domain.recommended_domain_count ()) ) ]
  in
  List.iter
    (fun (id, workload) ->
      let seq = time (workload ~jobs:1) in
      gauges := (Fmt.str "par.bench.%s.jobs1.seconds" id, seq) :: !gauges;
      if single_cpu then
        Fmt.pr "%-24s jobs=1 %.2fs   (speedup curve skipped on 1 CPU)@." id
          seq
      else begin
        let par = time (workload ~jobs:par_jobs) in
        let speedup = if par > 0. then seq /. par else 0. in
        Fmt.pr "%-24s jobs=1 %.2fs   jobs=%d %.2fs   speedup %.2fx@." id seq
          par_jobs par speedup;
        gauges :=
          (Fmt.str "par.bench.%s.speedup" id, speedup)
          :: (Fmt.str "par.bench.%s.jobs%d.seconds" id par_jobs, par)
          :: !gauges
      end)
    [ ("reliability", reliability_workload); ("ack-sweep", ack_sweep_workload) ];
  let snap =
    List.sort compare !gauges
    |> List.map (fun (name, v) -> (name, Sinr_obs.Metrics.Gauge_v v))
  in
  Sinr_obs.Sink.write_snapshot ~label:"par-bench" par_bench_path snap;
  Fmt.pr "[parallel bench written: %s]@." par_bench_path

(* ------------------------------------------------------------------ *)
(* phys: fast-path vs seed-kernel resolve throughput -> BENCH_phys.json *)
(* ------------------------------------------------------------------ *)

(* The acceptance gauge of the physics fast path (DESIGN.md "Physics fast
   path"): slot-resolution throughput of the cached kernel against the
   seed kernel (Sinr.resolve_reference) at n in {64, 256, 1024} with
   |S| = n/4 senders, plus the Reliability.estimate wall clock on both
   kernels.  Telemetry stays off (the experiment is in [uninstrumented])
   so the clocks measure the kernels. *)
let phys_bench_path = "BENCH_phys.json"

(* Adaptive repetition: run [f] until >= 0.3 s of wall clock, return
   calls per second. *)
let calls_per_second f =
  f ();
  (* warm-up: fills cache rows, faults code in *)
  let rec go reps =
    let t = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t in
    if dt >= 0.3 then float_of_int reps /. dt else go (reps * 4)
  in
  go 1

let phys_deployment ~n =
  let rng = Rng.create 51 in
  (* Constant density: ~20 in-range neighbours per node at R = 12. *)
  let side = 4.4 *. sqrt (float_of_int n) in
  let pts =
    Placement.uniform rng ~n ~box:(Sinr_geom.Box.square ~side) ~min_dist:1.
  in
  (Sinr.create Config.default pts, List.init (n / 4) (fun i -> i * 4))

let phys_bench () =
  Report.section "phys: cached kernel vs seed kernel";
  let gauges = ref [] in
  let record name v = gauges := (name, v) :: !gauges in
  List.iter
    (fun n ->
      let sinr, senders = phys_deployment ~n in
      let cached =
        calls_per_second (fun () -> ignore (Sinr.resolve sinr ~senders))
      in
      let reference =
        calls_per_second (fun () ->
            ignore (Sinr.resolve_reference sinr ~senders))
      in
      let speedup = cached /. reference in
      Fmt.pr
        "resolve n=%-5d |S|=%-4d cached %10.0f slots/s   seed %10.0f \
         slots/s   speedup %5.2fx@."
        n (List.length senders) cached reference speedup;
      record (Fmt.str "phys.bench.n%d.cached.slots_per_s" n) cached;
      record (Fmt.str "phys.bench.n%d.reference.slots_per_s" n) reference;
      record (Fmt.str "phys.bench.n%d.speedup" n) speedup)
    [ 64; 256; 1024 ];
  (* Reliability.estimate wall clock: the production path (cached kernel,
     scratch sender arrays) against the same trial loop on the seed
     kernel. *)
  let rel_n = 256 and trials = 1_500 and p = 0.25 in
  let sinr, _ = phys_deployment ~n:rel_n in
  let set = List.init rel_n Fun.id in
  let rel_rng = Rng.create 52 in
  let time f =
    let t = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t
  in
  let cached_s =
    time (fun () ->
        ignore
          (Reliability.estimate ~trials ~jobs:1 sinr rel_rng ~set ~p ~mu:0.01))
  in
  let reference_s =
    time (fun () ->
        (* The seed's trial loop verbatim: list senders, reference kernel. *)
        let members = Array.of_list set in
        for t = 0 to trials - 1 do
          let trng = Rng.split rel_rng ~key:t in
          let senders =
            Array.to_list members
            |> List.filter (fun _ -> Rng.bernoulli trng p)
          in
          if senders <> [] then
            ignore (Sinr.resolve_reference sinr ~senders)
        done)
  in
  Fmt.pr
    "reliability n=%d trials=%d   cached %.2fs   seed %.2fs   speedup \
     %.2fx@."
    rel_n trials cached_s reference_s
    (if cached_s > 0. then reference_s /. cached_s else 0.);
  record "phys.bench.reliability.cached.seconds" cached_s;
  record "phys.bench.reliability.reference.seconds" reference_s;
  record "phys.bench.reliability.speedup"
    (if cached_s > 0. then reference_s /. cached_s else 0.);
  let snap =
    List.sort compare !gauges
    |> List.map (fun (name, v) -> (name, Sinr_obs.Metrics.Gauge_v v))
  in
  Sinr_obs.Sink.write_snapshot ~label:"phys-bench" phys_bench_path snap;
  Fmt.pr "[phys bench written: %s]@." phys_bench_path

(* ------------------------------------------------------------------ *)
(* scale: slot throughput and peak RSS at 10^4..10^6 -> BENCH_scale.json *)
(* ------------------------------------------------------------------ *)

(* The million-node gate (DESIGN.md §15): Exp_scale's workload, a
   uniform constant-density deployment streamed straight into position
   columns (never an O(n) Point boxing pass), resolved on the
   auto-installed sparse path, with slot throughput and the kernel's RSS
   high-water mark recorded per size.  Sizes run ascending so each VmHWM
   reading is dominated by the run it follows.  SINR_SCALE_NS=10000,100000
   lets CI drop the million-node size (its absolute gauges are in the diff
   ignore list anyway). *)
let scale_bench_path = "BENCH_scale.json"

let scale_sizes () =
  match Sys.getenv_opt "SINR_SCALE_NS" with
  | None | Some "" -> [ 10_000; 100_000; 1_000_000 ]
  | Some s ->
    let ns =
      String.split_on_char ',' s
      |> List.filter_map int_of_string_opt
      |> List.filter (fun n -> n > 0)
      |> List.sort_uniq compare
    in
    if ns = [] then begin
      Fmt.epr "scale: SINR_SCALE_NS=%S has no positive sizes@." s;
      exit 2
    end;
    ns

let scale_bench () =
  Report.section "scale: slot throughput at 10^4..10^6 nodes";
  let gauges = ref [] in
  let record name v = gauges := (name, v) :: !gauges in
  List.iter
    (fun n ->
      let slots = if n >= 1_000_000 then 100 else 200 in
      let { Exp_scale.slots_per_s; setup_s; run_s; tx; deliveries; sparse } =
        Exp_scale.run ~seed:71 ~n ~slots
      in
      let rss_mb = Sinr_obs.Procstat.peak_rss_mb () in
      Fmt.pr
        "n=%-8d %d slots in %6.2fs  %8.1f slots/s   setup %6.2fs   tx \
         %d  deliveries %d  sparse %b  peak RSS %s@."
        n slots run_s slots_per_s setup_s tx deliveries sparse
        (match rss_mb with
         | Some mb -> Fmt.str "%.0f MiB" mb
         | None -> "n/a");
      let g fmt = Fmt.str fmt n in
      record (g "scale.bench.n%d.slots_per_s") slots_per_s;
      record (g "scale.bench.n%d.setup_seconds") setup_s;
      record (g "scale.bench.n%d.run_seconds") run_s;
      record (g "scale.bench.n%d.slots") (float_of_int slots);
      record (g "scale.bench.n%d.tx") (float_of_int tx);
      record (g "scale.bench.n%d.deliveries") (float_of_int deliveries);
      record (g "scale.bench.n%d.sparse") (if sparse then 1. else 0.);
      Option.iter (record (g "scale.bench.n%d.peak_rss_mb")) rss_mb)
    (scale_sizes ());
  let snap =
    List.sort compare !gauges
    |> List.map (fun (name, v) -> (name, Sinr_obs.Metrics.Gauge_v v))
  in
  Sinr_obs.Sink.write_snapshot ~label:"scale-bench" scale_bench_path snap;
  Fmt.pr "[scale bench written: %s]@." scale_bench_path

let record_gauge name v =
  Sinr_obs.Metrics.with_enabled (fun () ->
      Sinr_obs.Metrics.set (Sinr_obs.Metrics.gauge name) v)

(* ------------------------------------------------------------------ *)
(* trace-overhead: disabled-tracing cost of the span hooks             *)
(* ------------------------------------------------------------------ *)

(* The one-load-and-branch guarantee (DESIGN.md §11): the span hooks in
   Engine.step_select / Combined_mac / the B.1 and 9.1 machines must be free
   when the recorder is off.  Clock the same Algorithm 11.1 ack workload
   with the recorder off twice — the relative spread between the two off
   runs is the host's noise floor, and the disabled hook cost has to hide
   inside it — then once with the recorder on for the honest price of
   full tracing.  The gauges land in BENCH_obs.json; `bench diff` gates
   obs.bench.off.spread (band) so a hook creeping out of the branch shows
   up as a regression.  A run with metrics on (recorder off) prices the
   always-on telemetry of `sinr_sim serve`: obs.bench.metrics_ratio, gated
   as a band, catches a per-slot O(n) counter pass coming back. *)
let trace_overhead () =
  Report.section "trace-overhead: span hooks off vs on";
  let workload () =
    let rng = Rng.create 61 in
    let pts =
      Placement.uniform rng ~n:48 ~box:(Sinr_geom.Box.square ~side:26.)
        ~min_dist:1.
    in
    let sinr = Sinr.create Config.default pts in
    let senders = List.filter (fun v -> v mod 2 = 0) (List.init 48 Fun.id) in
    ignore
      (Sinr_mac.Measure.acks sinr ~rng:(Rng.create 62) ~senders
         ~max_slots:120_000)
  in
  let time f =
    let t = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t
  in
  workload ();
  (* warm-up: faults code in, fills gain-cache rows *)
  let once = time workload in
  (* One Measure.acks run is a few ms; repeat until the clocks dominate
     scheduler and GC noise. *)
  let reps = max 3 (int_of_float (Float.ceil (0.5 /. Float.max once 1e-4))) in
  let run () =
    for _ = 1 to reps do
      workload ()
    done
  in
  let off1 = time run in
  let off2 = time run in
  let off = Float.min off1 off2 in
  let spread = if off > 0. then Float.abs (off1 -. off2) /. off else 0. in
  let metered = Sinr_obs.Metrics.with_enabled (fun () -> time run) in
  let metrics_ratio = if off > 0. then metered /. off else 0. in
  Sinr_obs.Recorder.clear ();
  Sinr_obs.Recorder.set_enabled true;
  let traced =
    Fun.protect
      ~finally:(fun () -> Sinr_obs.Recorder.set_enabled false)
      (fun () -> time run)
  in
  let entries = List.length (Sinr_obs.Span.entries ()) in
  let dropped = Sinr_obs.Span.dropped_count () in
  Sinr_obs.Recorder.clear ();
  let ratio = if off > 0. then traced /. off else 0. in
  (* Direct price of the guard itself: every disabled hook reduces to this
     one load-and-branch. *)
  let iters = 20_000_000 in
  let hits = ref 0 in
  let t = Unix.gettimeofday () in
  for _ = 1 to iters do
    if Sinr_obs.Recorder.is_enabled () then incr hits
  done;
  let check_ns =
    (Unix.gettimeofday () -. t) /. float_of_int iters *. 1e9
  in
  assert (!hits = 0);
  Fmt.pr
    "acks workload x%d: off %.3fs / %.3fs (spread %.1f%%)   traced %.3fs \
     (%.2fx)   ring %d entries, %d dropped@."
    reps off1 off2 (100. *. spread) traced ratio entries dropped;
  Fmt.pr "metrics on: %.3fs (%.2fx)@." metered metrics_ratio;
  Fmt.pr "disabled check: %.2f ns/call@." check_ns;
  record_gauge "obs.bench.off.seconds" off;
  record_gauge "obs.bench.off.spread" spread;
  record_gauge "obs.bench.traced.seconds" traced;
  record_gauge "obs.bench.traced_ratio" ratio;
  record_gauge "obs.bench.metrics_ratio" metrics_ratio;
  record_gauge "obs.bench.ring_entries" (float_of_int entries);
  record_gauge "obs.bench.disabled_check.ns" check_ns

(* ------------------------------------------------------------------ *)
(* metrics-overhead: sharded histogram observe vs the seed mutex path  *)
(* ------------------------------------------------------------------ *)

(* The seed registry's histogram observe — a per-histogram mutex around
   plain field updates — kept verbatim as the baseline the sharded path
   (lib/obs/metrics) is measured against. *)
module Mutex_hist = struct
  type t = {
    mutex : Mutex.t;
    mutable count : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
    buckets : int array;
  }

  let create () =
    { mutex = Mutex.create ();
      count = 0;
      sum = 0.;
      mn = infinity;
      mx = neg_infinity;
      buckets = Array.make Sinr_obs.Metrics.nbuckets 0 }

  let observe h v =
    let v = if Float.is_nan v then 0. else Float.max 0. v in
    Mutex.lock h.mutex;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.mn then h.mn <- v;
    if v > h.mx then h.mx <- v;
    let i = Sinr_obs.Metrics.bucket_of v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    Mutex.unlock h.mutex
end

(* Per-observe cost of the two paths, single-domain and with 4 domains
   hammering the same histogram.  The sharded path must beat the mutex
   path under contention (that is the acceptance gauge,
   obs.bench.metrics.speedup4); absolute ns are recorded but host-specific
   (on a single-core host 4 domains timeshare, so contention shows as
   preempted critical sections rather than cache-line ping-pong — the
   numbers are honest for what this hardware can show). *)
let metrics_overhead () =
  Report.section "metrics-overhead: sharded observe vs seed mutex path";
  let ops = 2_000_000 in
  let value i = float_of_int (i land 1023) in
  let per_op_ns total_ops f =
    let t = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t) /. float_of_int total_ops *. 1e9
  in
  let sharded_loop h n () =
    for i = 1 to n do
      Sinr_obs.Metrics.observe h (value i)
    done
  in
  let mutex_loop h n () =
    for i = 1 to n do
      Mutex_hist.observe h (value i)
    done
  in
  let domains = 4 in
  let spawn_all loop =
    let ds = Array.init domains (fun _ -> Domain.spawn loop) in
    Array.iter Domain.join ds
  in
  (* Sharded path: the real registry, enabled for the duration. *)
  let sharded1, sharded4 =
    Sinr_obs.Metrics.with_enabled @@ fun () ->
    let h = Sinr_obs.Metrics.histogram "bench.mo.sharded" in
    sharded_loop h 10_000 () (* warm-up: shard creation, code faulted in *);
    let s1 = per_op_ns ops (sharded_loop h ops) in
    let s4 =
      per_op_ns (domains * ops) (fun () ->
          spawn_all (fun () -> sharded_loop h ops ()))
    in
    (s1, s4)
  in
  (* Seed mutex path: same loop shape, same bucket math, lock per observe. *)
  let m = Mutex_hist.create () in
  mutex_loop m 10_000 ();
  let mutex1 = per_op_ns ops (mutex_loop m ops) in
  let mutex4 =
    per_op_ns (domains * ops) (fun () ->
        spawn_all (fun () -> mutex_loop m ops ()))
  in
  let speedup1 = if sharded1 > 0. then mutex1 /. sharded1 else 0. in
  let speedup4 = if sharded4 > 0. then mutex4 /. sharded4 else 0. in
  Fmt.pr "observe x%d (1 domain):  sharded %6.1f ns/op   mutex %6.1f ns/op \
          (%.2fx)@."
    ops sharded1 mutex1 speedup1;
  Fmt.pr "observe x%d (%d domains): sharded %6.1f ns/op   mutex %6.1f \
          ns/op  (%.2fx)@."
    ops domains sharded4 mutex4 speedup4;
  record_gauge "obs.bench.metrics.sharded.ns" sharded1;
  record_gauge "obs.bench.metrics.mutex.ns" mutex1;
  record_gauge "obs.bench.metrics.sharded4.ns" sharded4;
  record_gauge "obs.bench.metrics.mutex4.ns" mutex4;
  record_gauge "obs.bench.metrics.speedup1" speedup1;
  record_gauge "obs.bench.metrics.speedup4" speedup4

(* The paper's experiments, then the harness's own benchmarks. *)
let experiments =
  Catalog.experiments
  @ [ ("micro", micro);
      ("par-bench", par_bench);
      ("phys", phys_bench);
      ("scale", scale_bench);
      ("trace-overhead", trace_overhead);
      ("metrics-overhead", metrics_overhead) ]

(* Machine-readable companion to the printed tables: the telemetry snapshot
   of everything the experiments did, plus wall-time and status gauges per
   experiment.  The [micro] kernels and [par-bench] clocks run with
   telemetry disabled so their numbers measure the uninstrumented hot
   paths (the disabled-overhead guarantee the registry makes is itself
   checked by the sinr_resolve kernel). *)
let obs_path = "BENCH_obs.json"

(* metrics-overhead manages the registry flag itself (it measures the
   enabled path deliberately), so it is "uninstrumented" from the runner's
   point of view. *)
let uninstrumented =
  [ "micro"; "par-bench"; "phys"; "scale"; "trace-overhead";
    "metrics-overhead" ]

(* Leading --jobs N / --jobs=N flags; everything else is experiment ids. *)
let parse_args args =
  let set_jobs n =
    match int_of_string_opt n with
    | Some j when j >= 1 -> Pool.set_default_jobs j
    | Some _ | None ->
      Fmt.epr "bench: --jobs expects a positive integer, got %S@." n;
      exit 2
  in
  let rec go acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest ->
      set_jobs n;
      go acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      go acc rest
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

(* bench diff: the regression gate.  Compares a fresh snapshot against a
   committed baseline (lib/obs/bench_diff.mli documents the per-metric
   direction heuristics) and exits 1 on any Regressed or Missing finding,
   so CI can run `bench phys && bench diff --baseline
   bench/baselines/BENCH_phys.json ...` as a gate.  --current defaults to
   the baseline's basename in the working directory — where the
   experiments write their BENCH_*.json. *)
let diff_mode args =
  let baseline = ref None and current = ref None in
  let tolerance = ref 0.25 and ignores = ref [] in
  let rec go = function
    | [] -> ()
    | "--baseline" :: p :: rest ->
      baseline := Some p;
      go rest
    | "--current" :: p :: rest ->
      current := Some p;
      go rest
    | "--tolerance" :: t :: rest ->
      (match float_of_string_opt t with
       | Some v when v >= 0. -> tolerance := v
       | Some _ | None ->
         Fmt.epr "bench diff: --tolerance expects a non-negative number, \
                  got %S@." t;
         exit 2);
      go rest
    | "--ignore" :: p :: rest ->
      ignores := p :: !ignores;
      go rest
    | arg :: _ ->
      Fmt.epr "bench diff: unknown argument %S@." arg;
      Fmt.epr "usage: bench diff --baseline PATH [--current PATH] \
               [--tolerance T] [--ignore GLOB]...@.";
      exit 2
  in
  go args;
  let baseline_path =
    match !baseline with
    | Some p -> p
    | None ->
      Fmt.epr "bench diff: --baseline PATH is required@.";
      exit 2
  in
  let current_path =
    match !current with
    | Some p -> p
    | None -> Filename.basename baseline_path
  in
  let load path =
    try Sinr_obs.Bench_diff.load_snapshot path with
    | Sys_error msg ->
      Fmt.epr "bench diff: %s@." msg;
      exit 2
    | Failure msg ->
      Fmt.epr "bench diff: %s@." msg;
      exit 2
    | Sinr_obs.Json.Parse_error msg ->
      Fmt.epr "bench diff: %s: malformed JSON: %s@." path msg;
      exit 2
  in
  let b = load baseline_path in
  (* A missing current snapshot is a gate failure (the workload died
     before writing it), not a usage error: report every baseline metric
     as Missing and exit 1, so CI distinguishes "regressed" from "bench
     diff was invoked wrong" (exit 2). *)
  if not (Sys.file_exists current_path) then begin
    let findings =
      Sinr_obs.Bench_diff.missing_current ~ignores:(List.rev !ignores)
        ~baseline:b ()
    in
    Fmt.pr "baseline %s@.current  %s (file missing)@.@." baseline_path
      current_path;
    Fmt.pr "%a" Sinr_obs.Bench_diff.pp_findings findings;
    let regs = Sinr_obs.Bench_diff.regressions findings in
    Fmt.epr "@.bench diff: current snapshot %s is missing — %d metric%s \
             unaccounted@."
      current_path (List.length regs)
      (if List.length regs = 1 then "" else "s");
    exit 1
  end;
  let c = load current_path in
  let findings =
    Sinr_obs.Bench_diff.diff ~tolerance:!tolerance
      ~ignores:(List.rev !ignores) ~baseline:b ~current:c ()
  in
  Fmt.pr "baseline %s@.current  %s@.tolerance %g@.@." baseline_path
    current_path !tolerance;
  Fmt.pr "%a" Sinr_obs.Bench_diff.pp_findings findings;
  match Sinr_obs.Bench_diff.regressions findings with
  | [] -> Fmt.pr "@.bench diff: ok (%d metrics checked)@."
            (List.length findings)
  | regs ->
    Fmt.epr "@.bench diff: %d regression%s@." (List.length regs)
      (if List.length regs = 1 then "" else "s");
    exit 1

let run_experiments args =
  let ids = parse_args args in
  let requested =
    match ids with [] -> List.map fst experiments | ids -> ids
  in
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then begin
        Fmt.epr "unknown experiment %S; known: %s@." id
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    requested;
  let t0 = Unix.gettimeofday () in
  Fmt.epr "[pool: %d jobs]@." (Pool.default_jobs ());
  let failures = ref [] in
  (* Always leave a snapshot behind, even if an experiment (or the loop
     itself) dies: partial results beat no results. *)
  Fun.protect
    ~finally:(fun () ->
      let snap = Sinr_obs.Metrics.snapshot () in
      Sinr_obs.Sink.write_snapshot ~label:"bench" obs_path snap;
      Fmt.pr "@.[obs snapshot written: %s]@." obs_path;
      Fmt.epr "total wall time: %.1fs@." (Unix.gettimeofday () -. t0))
    (fun () ->
      List.iter
        (fun id ->
          let f = List.assoc id experiments in
          let t = Unix.gettimeofday () in
          let ok =
            try
              if List.mem id uninstrumented then f ()
              else Sinr_obs.Metrics.with_enabled f;
              true
            with e ->
              let bt = Printexc.get_backtrace () in
              Fmt.epr "@.[%s FAILED: %s]@.%s@." id (Printexc.to_string e) bt;
              false
          in
          let dt = Unix.gettimeofday () -. t in
          record_gauge ("bench." ^ id ^ ".seconds") dt;
          record_gauge ("bench." ^ id ^ ".ok") (if ok then 1. else 0.);
          if not ok then failures := id :: !failures;
          Fmt.epr "@.[%s %s in %.1fs]@." id
            (if ok then "done" else "FAILED")
            dt)
        requested);
  match !failures with
  | [] -> ()
  | fs ->
    Fmt.epr "failed experiments: %s@." (String.concat " " (List.rev fs));
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "diff" :: rest -> diff_mode rest
  | args -> run_experiments args
