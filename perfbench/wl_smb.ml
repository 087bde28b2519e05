(* smb-200: the paper's headline application (Thm 12.7, BSMB over the
   Algorithm 11.1 absMAC) at paper scale.  Each task is one global
   single-message broadcast to completion on a connected uniform
   deployment (n = 200, target strong degree 8 — E5c's family at 2.5x its
   largest size), including the MAC's construction, with telemetry off.

   At this size the gain cache holds every row, so physics is a small
   share and the run is bound by the MAC machines and the protocol. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_mac
open Sinr_proto
open Sinr_obs
module W = Sinr_expt.Workloads
open Bench_util

let n = 200
let degree = 8

(* Deployments built per set-up and reused round-robin by the tasks. *)
let pool = 32
let setup_reps = 5

(* Every run executes at least this many tasks: the outcome digest covers
   exactly this prefix, and the traced run replays it. *)
let prefix = 100
let max_slots = 400_000

let deploy_rng ~seed i = Rng.split (Rng.create seed) ~key:(10_000 + i)
let mac_rng ~seed i = Rng.split (Rng.create seed) ~key:(1_000_000 + i)
let source i = i * 61 mod n

let build_pool ~seed =
  Array.init pool (fun i ->
      W.connected (deploy_rng ~seed i) (fun rng -> W.uniform rng ~n ~target_degree:degree))

type task = { completed : int option; reached : int }

let failed_task t = t.completed = None || t.reached < n
let slots_of t = Option.value t.completed ~default:max_slots

let run_task (deps : W.deployment array) ~seed i =
  let d = deps.(i mod pool) in
  let r = Global.smb d.W.sinr ~rng:(mac_rng ~seed i) ~source:(source i) ~max_slots in
  { completed = r.Global.completed; reached = r.Global.reached }

let note_task dg i t =
  note dg "task %d completed %s reached %d" i
    (match t.completed with Some c -> string_of_int c | None -> "-")
    t.reached

let guard_cached_kernel (deps : W.deployment array) =
  Array.iteri
    (fun i d ->
      guard (Sinr.sparse d.W.sinr = None)
        "smb-200: deployment %d left the exact kernel (sparse installed)" i;
      guard
        (Gain_cache.rows_cached (Sinr.gain_cache d.W.sinr) > 0)
        "smb-200: deployment %d never filled a gain-cache row" i)
    deps

let setup ~seed =
  let last = ref [||] in
  let times =
    List.init setup_reps (fun _ ->
        last := [||];
        Gc.full_major ();
        let deps, s = timed (fun () -> build_pool ~seed) in
        last := deps;
        s)
  in
  (!last, median times)

let run ~seed ~seconds =
  let deps, setup_s = setup ~seed in
  let dg = digest () in
  let times = ref [] and slots = ref 0 and failed = ref 0 in
  let t0 = now () in
  let i = ref 0 in
  while !i < prefix || now () -. t0 < seconds do
    let t, s = timed (fun () -> run_task deps ~seed !i) in
    times := s :: !times;
    slots := !slots + slots_of t;
    if failed_task t then incr failed;
    if !i < prefix then note_task dg !i t;
    incr i
  done;
  let wall = now () -. t0 in
  guard_cached_kernel deps;
  Printf.printf "smb-200: %d tasks, %d failed, %d slots in %.2f s\n" !i !failed !slots wall;
  Printf.printf "digest %s (first %d tasks)\n" (digest_hex dg) prefix;
  { correct = true;
    attempted = !i;
    failed = !failed;
    metrics =
      [ ("slots_per_s", float_of_int !slots /. wall);
        ("task_s.p50", quantile !times 0.5);
        ("task_s.p90", quantile !times 0.9);
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ()) ] }

(* ---------------- traced run ---------------- *)

(* Workloads.connected + Workloads.uniform, rebuilt from the public
   geometry, physics and graph constructors so each piece can be timed. *)
type build_times = { mutable place : float; mutable create : float; mutable profile : float }

let rebuild bt rng =
  let config = Config.default in
  let r = Config.strong_range config in
  let rho = float_of_int degree /. (Float.pi *. r *. r) in
  let side = sqrt (float_of_int n /. rho) in
  let rec go k =
    if k = 0 then failwith "smb-200: no connected deployment";
    let rng = Rng.split rng ~key:(1000 + k) in
    let pts, tp =
      timed (fun () -> Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.)
    in
    let sinr, tc = timed (fun () -> Sinr.create config pts) in
    let prof, tg = timed (fun () -> Induced.profile config pts) in
    bt.place <- bt.place +. tp;
    bt.create <- bt.create +. tc;
    bt.profile <- bt.profile +. tg;
    if Components.is_connected prof.Induced.strong then (sinr, prof.Induced.strong)
    else go (k - 1)
  in
  go 25

(* Slot classes of Algorithm 11.1: HM-ack on even slots, the four stages
   of Algorithm 9.1 on odd ones, decoded from the public schedule. *)
let class_names = [| "mac.hm_s"; "mac.approg.probe_s"; "mac.approg.list_s"; "mac.approg.mis_s"; "mac.approg.data_s" |]

let slot_class mac =
  if Combined_mac.now mac mod 2 = 0 then 0
  else begin
    let ap = Combined_mac.approg mac in
    let s = Approx_progress.schedule ap in
    let o = Approx_progress.pos ap mod s.Params.phase_slots in
    let t = s.Params.t in
    if o < t then 1
    else if o < 2 * t then 2
    else if o - (2 * t) < s.Params.mis_rounds * t then 3
    else 4
  end

(* Def 12.2: an ack is nice when every G_{1-eps} neighbor of the sender
   has received the message by then. *)
type nice = { got : (int * int * int, unit) Hashtbl.t; mutable acks : int; mutable nice : int }

let nice_tracker () = { got = Hashtbl.create 4096; acks = 0; nice = 0 }

let on_rcv nt ~node ~(payload : Events.payload) =
  Hashtbl.replace nt.got (node, payload.Events.origin, payload.Events.seq) ()

let on_ack nt strong ~node ~(payload : Events.payload) =
  nt.acks <- nt.acks + 1;
  if
    Array.for_all
      (fun v -> Hashtbl.mem nt.got (v, node, payload.Events.seq))
      (Graph.neighbors strong node)
  then nt.nice <- nt.nice + 1

type traced = {
  mutable create_s : float;
  mutable step_s : float;
  cls : float array;
}

(* Global.smb's stack, rebuilt: the same ack parameters (eps_ack scaled to
   the problem size as in the proof of Thm 12.7), with the driver's [step]
   and handlers wrapped from outside. *)
let traced_task tr nt (sinr, strong) ~seed i =
  let ack_params =
    { Params.default_ack with
      Params.eps_ack = Float.min Params.default_ack.Params.eps_ack (0.5 /. float_of_int n) }
  in
  let mac, c = timed (fun () -> Combined_mac.create ~ack_params sinr ~rng:(mac_rng ~seed i)) in
  tr.create_s <- tr.create_s +. c;
  let inner = Mac_driver.of_combined mac in
  let step () =
    let k = slot_class mac in
    let t0 = now () in
    inner.Mac_driver.step ();
    let dt = now () -. t0 in
    tr.step_s <- tr.step_s +. dt;
    tr.cls.(k) <- tr.cls.(k) +. dt
  in
  let set_handlers (h : Absmac_intf.handlers) =
    inner.Mac_driver.set_handlers
      { Absmac_intf.on_rcv =
          (fun ~node ~payload ->
            on_rcv nt ~node ~payload;
            h.Absmac_intf.on_rcv ~node ~payload);
        on_ack =
          (fun ~node ~payload ->
            on_ack nt strong ~node ~payload;
            h.Absmac_intf.on_ack ~node ~payload) }
  in
  let proto = Bmmb.create { inner with Mac_driver.step; set_handlers } in
  Bmmb.arrive proto ~node:(source i) ~msg:0;
  let nodes = List.init n Fun.id in
  let completed = Bmmb.run_until_complete proto ~nodes ~msgs:[ 0 ] ~max_steps:max_slots in
  let reached = List.length (List.filter (fun v -> Bmmb.delivered proto ~node:v ~msg:0) nodes) in
  Hashtbl.reset nt.got;
  { completed; reached }

let recorder_tasks = 20

let run_traced ~seed =
  let deps = build_pool ~seed in
  (* untraced reference pass over the digest prefix *)
  let dg0 = digest () in
  let (), wall0 =
    timed (fun () ->
        for i = 0 to prefix - 1 do
          note_task dg0 i (run_task deps ~seed i)
        done)
  in
  guard_cached_kernel deps;
  (* recorder on / off over the same tasks, telemetry otherwise off *)
  let rec_pass on =
    let entries = ref 0 and total = ref 0. in
    for i = 0 to recorder_tasks - 1 do
      Recorder.clear ();
      Recorder.set_enabled on;
      let _, s = timed (fun () -> run_task deps ~seed i) in
      Recorder.set_enabled false;
      total := !total +. s;
      entries := !entries + List.length (Span.entries ()) + Span.dropped_count ()
    done;
    Recorder.clear ();
    (!total, float_of_int !entries /. float_of_int recorder_tasks)
  in
  let off_s, _ = rec_pass false in
  let on_s, ring_entries = rec_pass true in
  (* traced pass: fresh instances from the public constructors *)
  Metrics.reset ();
  let bt = { place = 0.; create = 0.; profile = 0. } in
  let tr = { create_s = 0.; step_s = 0.; cls = Array.make 5 0. } in
  let nt = nice_tracker () in
  let dg1 = digest () in
  let same_points = ref true and failed = ref 0 in
  let wall1, minor =
    Profile.with_enabled (fun () ->
        let rebuilt =
          Array.init pool (fun i ->
              let ((sinr, _) as b) = rebuild bt (deploy_rng ~seed i) in
              if Sinr.points sinr <> Sinr.points deps.(i).W.sinr then same_points := false;
              b)
        in
        let m0 = Gc.minor_words () in
        let (), wall =
          timed (fun () ->
              for i = 0 to prefix - 1 do
                let r = traced_task tr nt rebuilt.(i mod pool) ~seed i in
                if failed_task r then incr failed;
                note_task dg1 i r
              done)
        in
        (wall, Gc.minor_words () -. m0))
  in
  let d0 = digest_hex dg0 and d1 = digest_hex dg1 in
  Printf.printf "digest untraced %s\ndigest traced   %s\n" d0 d1;
  guard !same_points "smb-200: rebuilt deployments differ from Workloads.uniform's";
  guard (counter "phys.cache.hits" > 0.) "smb-200: no phys.cache.hits in the traced run";
  let engine_step = stage_s "step" in
  let proto_self = Float.max 0. (wall1 -. tr.create_s -. tr.step_s) in
  let mac_self = Float.max 0. (tr.step_s -. engine_step) in
  let share_sum =
    print_shares ~wall:wall1
      ([ ("proto.self_s", proto_self); ("mac.create_s", tr.create_s); ("mac.self_s", mac_self) ]
      @ engine_split ())
  in
  { correct = d0 = d1 && Float.abs (share_sum -. 100.) <= 5.;
    attempted = prefix;
    failed = !failed;
    metrics =
      [ ("proto.self_s", proto_self);
        ("mac.self_s", mac_self);
        ("mac.create_s", tr.create_s) ]
      @ Array.to_list (Array.mapi (fun k name -> (name, tr.cls.(k))) class_names)
      @ [ ("mac.nice_frac", ratio (float_of_int nt.nice) (float_of_int nt.acks));
          ("engine.minor_words_per_slot", ratio minor (counter "engine.slots"));
          ("phys.create_s", bt.create);
          ("geom.placement_s", bt.place);
          ("graph.profile_s", bt.profile);
          ("obs.recorder_ratio", ratio on_s off_s);
          ("obs.ring_entries", ring_entries);
          ("obs.trace_overhead", ratio wall1 wall0);
          ("trace.share_sum", share_sum) ]
      @ telemetry_metrics () }
