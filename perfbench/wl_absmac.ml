(* absmac-32k: the Algorithm 11.1 absMAC (Combined_mac) at n = 32768, at
   the constant density of the scale leg (side 4.4·sqrt n, streamed with
   uniform_stream), telemetry off.  Every 100th node broadcasts and
   re-broadcasts on each ack: a steady ~1% local-broadcast load, with every
   radio awake from the start so that per-slot work does not drift upward
   as receptions wake nodes.

   Above the sparse threshold the sparse kernel installs itself and the
   gain cache is refused, so per-slot cost is Engine.step's O(n) passes
   plus Sparse resolution.  A task is one chunk of [chunk] slots of that
   steady load; the acks, each checked for niceness, are the operations.

   Broadcasters join Algorithm 9.1 at the next epoch boundary, so the
   first epoch runs HM-ack alone and costs about a third as much per slot
   as every later one; it is simulated untimed before measuring.
   A timed window that straddled it mixed the two costs in a proportion
   set by how fast the host was, and task_s.p50 spread by 40% between
   runs. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_mac
open Sinr_obs
open Bench_util

let n = 32_768
let every = 100
let setup_reps = 5
let chunk = 32

(* Every run times at least this many slots after the warm-up; the outcome
   digest is taken there and the traced run replays exactly this prefix. *)
let prefix = 320
let recorder_slots = 160

type inst = {
  sinr : Sinr.t;
  mac : Combined_mac.t;
  mutable strong : Graph.t option;
  got : (int, unit) Hashtbl.t array;  (* receivers of each sender's current message *)
  cur : int array;                    (* seq of each sender's current message *)
  mutable acks : int;
  mutable nice : int;
  mutable rcvs : int;
  ack_log : Buffer.t;
}

type times = { place : float; create_soa : float; mac_create : float; bcasts : float }

let bcast t ~node =
  let p = Combined_mac.bcast t.mac ~node ~data:0 in
  t.cur.(node / every) <- p.Events.seq;
  Hashtbl.reset t.got.(node / every)

(* Def 12.2 against G_{1-eps}: all strong neighbors received the message
   before its ack. *)
let on_ack t ~node ~(payload : Events.payload) =
  t.acks <- t.acks + 1;
  (match t.strong with
   | Some g ->
     if Array.for_all (fun v -> Hashtbl.mem t.got.(node / every) v) (Graph.neighbors g node)
     then t.nice <- t.nice + 1
   | None -> ());
  Buffer.add_string t.ack_log
    (Printf.sprintf "%d:%d:%d;" (Combined_mac.now t.mac) node payload.Events.seq);
  bcast t ~node

let on_rcv t ~node ~(payload : Events.payload) =
  t.rcvs <- t.rcvs + 1;
  let k = payload.Events.origin / every in
  if t.cur.(k) = payload.Events.seq then Hashtbl.replace t.got.(k) node ()

let build ~seed =
  let rng = Rng.create seed in
  let side = 4.4 *. sqrt (float_of_int n) in
  let soa = Soa.create ~n in
  let (), place =
    timed (fun () ->
        Placement.uniform_stream (Rng.split rng ~key:1) ~n ~box:(Box.square ~side) ~min_dist:1.
          ~set:(fun i ~x ~y -> Soa.set soa i ~x ~y)
          ~x:(Soa.x soa) ~y:(Soa.y soa))
  in
  let sinr, create_soa = timed (fun () -> Sinr.create_soa ~check:false Config.default soa) in
  let mac, mac_create = timed (fun () -> Combined_mac.create sinr ~rng:(Rng.split rng ~key:2)) in
  let senders = n / every in
  let t =
    { sinr; mac; strong = None;
      got = Array.init senders (fun _ -> Hashtbl.create 32);
      cur = Array.make senders (-1);
      acks = 0; nice = 0; rcvs = 0;
      ack_log = Buffer.create 4096 }
  in
  let (), bcasts =
    timed (fun () ->
        Combined_mac.set_handlers mac
          { Absmac_intf.on_rcv = on_rcv t; on_ack = on_ack t };
        Sinr_engine.Engine.wake_all (Combined_mac.engine mac);
        for k = 0 to senders - 1 do
          bcast t ~node:(k * every)
        done)
  in
  (t, { place; create_soa; mac_create; bcasts })

(* The checker's strong graph is the benchmark's own cost, outside set-up. *)
let attach_strong t =
  let g, s = timed (fun () -> Induced.strong (Sinr.config t.sinr) (Sinr.points t.sinr)) in
  t.strong <- Some g;
  s

let setup ~seed =
  let last = ref None in
  let times =
    List.init setup_reps (fun _ ->
        last := None;
        Gc.full_major ();
        let t, tm = build ~seed in
        last := Some t;
        tm.place +. tm.create_soa +. tm.mac_create +. tm.bcasts)
  in
  (Option.get !last, median times)

let note_state dg t =
  let e = Combined_mac.engine t.mac in
  note dg "slot %d tx %d deliveries %d acks %d nice %d rcvs %d log %s"
    (Combined_mac.now t.mac) (Sinr_engine.Engine.tx_total e)
    (Sinr_engine.Engine.delivery_total e) t.acks t.nice t.rcvs
    (Digest.to_hex (Digest.string (Buffer.contents t.ack_log)))

let guard_sparse t =
  guard (Sinr.sparse t.sinr <> None) "absmac-32k: sparse kernel not installed";
  guard (Gain_cache.bypassed (Sinr.gain_cache t.sinr)) "absmac-32k: gain cache not bypassed"

let fresh ~seed =
  let t, tm = build ~seed in
  let strong_s = attach_strong t in
  guard_sparse t;
  (t, tm, strong_s)

(* Step through the first epoch of Algorithm 9.1: 2 x epoch_slots engine
   slots, since approximate progress runs on the odd slots only. *)
let warm_up t =
  let epoch = (Approx_progress.schedule (Combined_mac.approg t.mac)).Params.epoch_slots in
  for _ = 1 to 2 * epoch do
    Combined_mac.step t.mac
  done

let run ~seed ~seconds =
  let t, setup_s = setup ~seed in
  ignore (attach_strong t);
  guard_sparse t;
  warm_up t;
  let dg = digest () in
  let t0 = now () in
  let slots = ref 0 and times = ref [] in
  while !slots < prefix || now () -. t0 < seconds do
    let (), s =
      timed (fun () ->
          for _ = 1 to chunk do
            Combined_mac.step t.mac;
            incr slots;
            if !slots = prefix then note_state dg t
          done)
    in
    times := s :: !times
  done;
  let wall = now () -. t0 in
  guard (t.acks > 0) "absmac-32k: no ack in %d slots" !slots;
  let failed = t.acks - t.nice in
  Printf.printf "absmac-32k: %d slots in %.2f s, %d acks (%d not nice), %d rcvs\n" !slots wall
    t.acks failed t.rcvs;
  Printf.printf "digest %s (at slot %d)\n" (digest_hex dg) prefix;
  { correct = true;
    attempted = t.acks;
    failed;
    metrics =
      [ ("slots_per_s", float_of_int !slots /. wall);
        ("task_s.p50", quantile !times 0.5);
        ("task_s.p90", quantile !times 0.9);
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ()) ] }

(* ---------------- traced run ---------------- *)

let run_traced ~seed =
  (* untraced reference over the digest prefix, then recorder off / on *)
  let dg0 = digest () in
  let wall0, recorder_ratio, ring_entries =
    let t, _, _ = fresh ~seed in
    warm_up t;
    let (), wall0 =
      timed (fun () ->
          for _ = 1 to prefix do
            Combined_mac.step t.mac
          done)
    in
    note_state dg0 t;
    let pass on =
      Recorder.clear ();
      Recorder.set_enabled on;
      let a0 = t.acks in
      let (), s =
        timed (fun () ->
            for _ = 1 to recorder_slots do
              Combined_mac.step t.mac
            done)
      in
      Recorder.set_enabled false;
      let entries = List.length (Span.entries ()) + Span.dropped_count () in
      Recorder.clear ();
      (s, ratio (float_of_int entries) (float_of_int (max 1 (t.acks - a0))))
    in
    let off_s, _ = pass false in
    let on_s, entries = pass true in
    (wall0, ratio on_s off_s, entries)
  in
  Gc.full_major ();
  Metrics.reset ();
  let dg1 = digest () in
  let step_s = ref 0. and cls = Array.make 5 0. in
  (* Built traced, so that the cache's refusal is counted; warmed up with
     telemetry off, and the registry cleared, so that the per-layer
     numbers cover exactly the replayed prefix. *)
  let t, tm, strong_s = Profile.with_enabled (fun () -> fresh ~seed) in
  let bypassed = counter "phys.cache.bypassed" in
  warm_up t;
  Metrics.reset ();
  let wall1, minor =
    Profile.with_enabled (fun () ->
        let m0 = Gc.minor_words () in
        let (), wall =
          timed (fun () ->
              for _ = 1 to prefix do
                let k = Wl_smb.slot_class t.mac in
                let t0 = now () in
                Combined_mac.step t.mac;
                let dt = now () -. t0 in
                step_s := !step_s +. dt;
                cls.(k) <- cls.(k) +. dt
              done)
        in
        let minor = Gc.minor_words () -. m0 in
        note_state dg1 t;
        (wall, minor))
  in
  let d0 = digest_hex dg0 and d1 = digest_hex dg1 in
  Printf.printf "digest untraced %s\ndigest traced   %s\n" d0 d1;
  guard (bypassed > 0.) "absmac-32k: phys.cache.bypassed = 0";
  guard (t.acks > 0) "absmac-32k: no ack in the traced prefix";
  let engine_step = stage_s "step" in
  let proto_self = Float.max 0. (wall1 -. !step_s) in
  let mac_self = Float.max 0. (!step_s -. engine_step) in
  let share_sum =
    print_shares ~wall:wall1
      ([ ("proto.self_s", proto_self); ("mac.self_s", mac_self) ] @ engine_split ())
  in
  { correct = d0 = d1 && Float.abs (share_sum -. 100.) <= 5.;
    attempted = t.acks;
    failed = t.acks - t.nice;
    metrics =
      [ ("proto.self_s", proto_self);
        ("mac.self_s", mac_self);
        ("mac.create_s", tm.mac_create) ]
      @ Array.to_list (Array.mapi (fun k name -> (name, cls.(k))) Wl_smb.class_names)
      @ [ ("mac.nice_frac", ratio (float_of_int t.nice) (float_of_int t.acks));
          ("engine.minor_words_per_slot", ratio minor (counter "engine.slots"));
          ("phys.create_s", tm.create_soa);
          ("geom.placement_s", tm.place);
          ("graph.profile_s", strong_s);
          ("obs.recorder_ratio", recorder_ratio);
          ("obs.ring_entries", ring_entries);
          ("obs.trace_overhead", ratio wall1 wall0);
          ("trace.share_sum", share_sum) ]
      @ telemetry_metrics () }
