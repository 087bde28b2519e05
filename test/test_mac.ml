(* Tests for the absMAC layer: parameters, the ideal reference MAC, the
   Halldorsson–Mitra acknowledgment machine, Decay, Algorithm 9.1 and the
   combined Algorithm 11.1. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_mac

let cfg = Config.default

(* ---------------- Params ---------------- *)

let test_schedule_monotone_in_lambda () =
  let s1 = Params.schedule cfg ~lambda:4. Params.default_approg in
  let s2 = Params.schedule cfg ~lambda:64. Params.default_approg in
  Alcotest.(check bool) "phi grows" true (s2.Params.phi > s1.Params.phi);
  Alcotest.(check bool) "q grows" true (s2.Params.q > s1.Params.q);
  Alcotest.(check bool) "epoch grows" true
    (s2.Params.epoch_slots > s1.Params.epoch_slots)

let test_schedule_layout () =
  let s = Params.schedule cfg ~lambda:10. Params.default_approg in
  Alcotest.(check int) "phase layout"
    s.Params.phase_slots
    ((2 * s.Params.t) + (s.Params.mis_rounds * s.Params.t) + s.Params.data_slots);
  Alcotest.(check int) "epoch layout" s.Params.epoch_slots
    (s.Params.phi * s.Params.phase_slots);
  Alcotest.(check bool) "threshold >= 1" true (s.Params.potential_threshold >= 1)

let test_params_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "p > 1/2 rejected" true
    (bad (fun () ->
         Params.validate_approg { Params.default_approg with Params.p = 0.6 }));
  Alcotest.(check bool) "mu >= p rejected" true
    (bad (fun () ->
         Params.validate_approg { Params.default_approg with Params.mu = 0.5 }));
  Alcotest.(check bool) "eps out of range rejected" true
    (bad (fun () ->
         Params.validate_approg
           { Params.default_approg with Params.eps_approg = 1.5 }))

let test_formulas_monotone () =
  let f1 = Params.f_ack_formula ~delta:10 ~lambda:10. ~eps_ack:0.1 in
  let f2 = Params.f_ack_formula ~delta:100 ~lambda:10. ~eps_ack:0.1 in
  Alcotest.(check bool) "f_ack grows with delta" true (f2 > f1);
  let g1 = Params.f_approg_formula cfg ~lambda:10. ~eps_approg:0.1 in
  let g2 = Params.f_approg_formula cfg ~lambda:100. ~eps_approg:0.1 in
  Alcotest.(check bool) "f_approg grows with lambda" true (g2 > g1);
  (* The headline gap: f_approg is degree-free. *)
  let with_smaller_eps = Params.f_approg_formula cfg ~lambda:10. ~eps_approg:0.01 in
  Alcotest.(check bool) "f_approg grows as eps shrinks" true (with_smaller_eps > g1)

let test_contention_default () =
  Alcotest.(check int) "4 lambda^2" 400 (Params.contention_default ~lambda:10.)

(* ---------------- Ideal MAC ---------------- *)

let path_graph n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let bounds =
  { Absmac_intf.f_ack = 20;
    f_prog = 5;
    f_approg = 5;
    eps_ack = 0.;
    eps_prog = 0.;
    eps_approg = 0. }

let run_ideal ?(policy = Ideal_mac.Random) ~slots graph k =
  let mac = Ideal_mac.create ~policy graph ~bounds ~rng:(Rng.create 5) in
  let rcvs = ref [] and acks = ref [] in
  Ideal_mac.set_handlers mac
    { Absmac_intf.on_rcv =
        (fun ~node ~payload ->
          rcvs := (Ideal_mac.now mac, node, payload) :: !rcvs);
      on_ack =
        (fun ~node ~payload ->
          acks := (Ideal_mac.now mac, node, payload) :: !acks) };
  k mac;
  for _ = 1 to slots do
    Ideal_mac.step mac
  done;
  (List.rev !rcvs, List.rev !acks)

let test_ideal_delivers_all_neighbors () =
  let g = path_graph 5 in
  let rcvs, acks =
    run_ideal ~slots:30 g (fun mac ->
        ignore (Ideal_mac.bcast mac ~node:2 ~data:7))
  in
  let receivers = List.sort compare (List.map (fun (_, v, _) -> v) rcvs) in
  Alcotest.(check (list int)) "both neighbors" [ 1; 3 ] receivers;
  (match acks with
   | [ (slot, node, payload) ] ->
     Alcotest.(check int) "ack at sender" 2 node;
     Alcotest.(check bool) "ack within f_ack" true (slot <= 20);
     Alcotest.(check int) "payload data" 7 payload.Events.data;
     List.iter
       (fun (s, _, _) ->
         Alcotest.(check bool) "rcv before ack" true (s <= slot))
       rcvs
   | _ -> Alcotest.fail "expected exactly one ack")

let test_ideal_adversarial_timing () =
  let g = path_graph 3 in
  let rcvs, acks =
    run_ideal ~policy:Ideal_mac.Adversarial ~slots:40 g (fun mac ->
        ignore (Ideal_mac.bcast mac ~node:0 ~data:0))
  in
  (* Node 0 has one neighbor: its rcv lands exactly at f_prog, the ack at
     f_ack. *)
  (match rcvs with
   | [ (slot, 1, _) ] -> Alcotest.(check int) "rcv at f_prog" 5 slot
   | _ -> Alcotest.fail "expected one rcv at node 1");
  (match acks with
   | [ (slot, 0, _) ] -> Alcotest.(check int) "ack at f_ack" 20 slot
   | _ -> Alcotest.fail "expected one ack")

let test_ideal_busy_and_abort () =
  let g = path_graph 3 in
  let mac = Ideal_mac.create g ~bounds ~rng:(Rng.create 1) in
  ignore (Ideal_mac.bcast mac ~node:0 ~data:1);
  Alcotest.(check bool) "busy" true (Ideal_mac.busy mac ~node:0);
  Alcotest.(check bool) "double bcast rejected" true
    (try ignore (Ideal_mac.bcast mac ~node:0 ~data:2); false
     with Invalid_argument _ -> true);
  Ideal_mac.abort mac ~node:0;
  Alcotest.(check bool) "not busy after abort" false (Ideal_mac.busy mac ~node:0);
  let acked = ref false in
  Ideal_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack = (fun ~node:_ ~payload:_ -> acked := true) };
  for _ = 1 to 50 do
    Ideal_mac.step mac
  done;
  Alcotest.(check bool) "aborted bcast never acks" false !acked

let test_ideal_isolated_node_acks () =
  let g = Graph.empty 2 in
  let _, acks =
    run_ideal ~slots:40 g (fun mac -> ignore (Ideal_mac.bcast mac ~node:0 ~data:1))
  in
  Alcotest.(check int) "isolated ack arrives" 1 (List.length acks)

(* ---------------- Hm_ack ---------------- *)

let mk_hm ?(eps = 0.1) ~lambda n =
  Hm_ack.create
    { Params.default_ack with Params.eps_ack = eps }
    ~lambda ~n ~rng:(Rng.create 11)

let dummy_payload = { Events.origin = 0; seq = 0; data = 0 }

let test_hm_halts_without_reception () =
  let hm = mk_hm ~lambda:4. 1 in
  Hm_ack.start hm ~node:0 dummy_payload;
  let steps = ref 0 in
  while Hm_ack.active hm ~node:0 && !steps < 100_000 do
    ignore (Hm_ack.decide hm ~node:0);
    incr steps
  done;
  Alcotest.(check bool) "halted" true (Hm_ack.halted hm ~node:0);
  Alcotest.(check bool) "bounded slots" true (!steps < 100_000);
  Alcotest.(check int) "slots accounted" !steps (Hm_ack.slots_run hm ~node:0)

let test_hm_fallback_on_receptions () =
  let hm = mk_hm ~lambda:4. 1 in
  Hm_ack.start hm ~node:0 dummy_payload;
  (* Pound the node with receptions: fallbacks must trigger. *)
  for _ = 1 to 2000 do
    ignore (Hm_ack.decide hm ~node:0);
    Hm_ack.on_receive hm ~node:0
  done;
  Alcotest.(check bool) "fallbacks occurred" true (Hm_ack.fallbacks hm ~node:0 > 0)

let test_hm_contention_slows_halt () =
  (* More receptions => lower probabilities => later halt. *)
  let run ~noisy =
    let hm = mk_hm ~lambda:4. 1 in
    Hm_ack.start hm ~node:0 dummy_payload;
    let steps = ref 0 in
    while Hm_ack.active hm ~node:0 && !steps < 1_000_000 do
      ignore (Hm_ack.decide hm ~node:0);
      if noisy then Hm_ack.on_receive hm ~node:0;
      incr steps
    done;
    !steps
  in
  Alcotest.(check bool) "noisy slower" true (run ~noisy:true > run ~noisy:false)

let test_hm_stop_resets () =
  let hm = mk_hm ~lambda:4. 2 in
  Hm_ack.start hm ~node:0 dummy_payload;
  ignore (Hm_ack.decide hm ~node:0);
  Hm_ack.stop hm ~node:0;
  Alcotest.(check bool) "inactive" false (Hm_ack.active hm ~node:0);
  Alcotest.(check bool) "decide is None when stopped" true
    (Hm_ack.decide hm ~node:0 = None);
  Alcotest.(check bool) "other node unaffected" false (Hm_ack.active hm ~node:1)

let test_hm_pair_delivery () =
  (* Two nodes in range: by the halt, the listener has received the
     payload (Lemma B.20 at tiny scale). *)
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let sinr = Sinr.create cfg pts in
  let engine = Sinr_engine.Engine.create sinr in
  let hm = mk_hm ~lambda:(Induced.lambda cfg pts) 2 in
  Sinr_engine.Engine.wake engine 0;
  Hm_ack.start hm ~node:0 dummy_payload;
  let got = ref false in
  let steps = ref 0 in
  while Hm_ack.active hm ~node:0 && !steps < 200_000 do
    let k =
      Sinr_engine.Engine.step_select engine
        ~select:
          (Sinr_engine.Engine.walk engine ~decide:(fun v ->
               Hm_ack.decide hm ~node:v))
    in
    for i = 0 to k - 1 do
      if Sinr_engine.Engine.receiver engine i = 1 then got := true
    done;
    incr steps
  done;
  Alcotest.(check bool) "halted" true (Hm_ack.halted hm ~node:0);
  Alcotest.(check bool) "neighbor received before halt" true !got

(* ---------------- Decay ---------------- *)

let test_decay_cycle () =
  let d = Decay.create ~n_tilde:16 ~n:2 ~rng:(Rng.create 3) in
  Alcotest.(check int) "cycle length" 5 (Decay.cycle_len d);
  Alcotest.(check bool) "inactive decides None" true
    (Decay.decide d ~node:0 ~slot:0 = None);
  Decay.start d ~node:0 ~slot:0 dummy_payload;
  (* Slot 0 of a cycle transmits with probability 1. *)
  Alcotest.(check bool) "slot 0 always transmits" true
    (Decay.decide d ~node:0 ~slot:0 <> None);
  Alcotest.(check bool) "cycle restart transmits" true
    (Decay.decide d ~node:0 ~slot:5 <> None);
  Decay.stop d ~node:0;
  Alcotest.(check bool) "stopped" false (Decay.active d ~node:0)

(* ---------------- Approx_progress (Algorithm 9.1) ---------------- *)

let uniform_net seed n side =
  let rng = Rng.create seed in
  let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  Sinr.create cfg pts

let test_approg_epoch_rollover () =
  let sinr = uniform_net 21 20 15. in
  let lambda = Induced.lambda cfg (Sinr.points sinr) in
  let m =
    Approx_progress.create Params.default_approg cfg ~lambda ~n:20
      ~rng:(Rng.create 2)
  in
  let sched = Approx_progress.schedule m in
  Alcotest.(check int) "epoch 0" 0 (Approx_progress.epoch_index m);
  for _ = 1 to sched.Params.epoch_slots do
    ignore (Approx_progress.end_slot m)
  done;
  Alcotest.(check int) "epoch 1" 1 (Approx_progress.epoch_index m);
  Alcotest.(check int) "pos wrapped" 0 (Approx_progress.pos m)

let test_approg_membership_waits_for_epoch () =
  let sinr = uniform_net 22 20 15. in
  let lambda = Induced.lambda cfg (Sinr.points sinr) in
  let m =
    Approx_progress.create Params.default_approg cfg ~lambda ~n:20
      ~rng:(Rng.create 2)
  in
  let sched = Approx_progress.schedule m in
  (* Joining mid-epoch does not make the node a member... *)
  ignore (Approx_progress.end_slot m);
  Approx_progress.start m ~node:3 dummy_payload;
  Alcotest.(check bool) "not yet a member" false (Approx_progress.member m ~node:3);
  (* ...until the next epoch boundary. *)
  for _ = 1 to sched.Params.epoch_slots do
    ignore (Approx_progress.end_slot m)
  done;
  Alcotest.(check bool) "member next epoch" true (Approx_progress.member m ~node:3)

let test_approg_progress_small_net () =
  let sinr = uniform_net 23 50 25. in
  let senders = [ 0; 10; 20; 30; 40 ] in
  let sched =
    Params.schedule cfg
      ~lambda:(Induced.lambda cfg (Sinr.points sinr))
      Params.default_approg
  in
  let samples, machine =
    Measure.approx_progress_only sinr ~rng:(Rng.create 31) ~senders
      ~max_slots:(6 * sched.Params.epoch_slots)
  in
  let progressed = List.filter (fun s -> s.Measure.delay <> None) samples in
  Alcotest.(check bool) "samples exist" true (List.length samples > 5);
  (* eps_approg = 0.1: demand at least 80% progressed within 5 epochs. *)
  Alcotest.(check bool) "most listeners progressed" true
    (float_of_int (List.length progressed)
     >= 0.8 *. float_of_int (List.length samples));
  Alcotest.(check bool) "few drops" true
    (Approx_progress.drops_total machine
     < 3 * 5 * (1 + Approx_progress.epoch_index machine))

let test_approg_vacuous_on_fig1 () =
  (* Theorem 6.1's construction: U-V links have length exactly R(1-eps),
     which exceeds R(1-2eps) — approximate progress demands nothing there.
     This is exactly how the new spec escapes the lower bound. *)
  let gap = Config.strong_range cfg in
  let tl = Placement.two_lines ~delta:5 ~spacing:1. ~gap in
  let approx = Induced.approx cfg tl.Placement.points in
  let covered =
    Measure.covered_listeners ~approx_graph:approx
      ~senders:(Array.to_list tl.Placement.senders)
      ~n:(Array.length tl.Placement.points)
  in
  Alcotest.(check (list int)) "no covered listeners across lines" [] covered

let test_approg_rcv_dedup () =
  let sinr = uniform_net 24 30 18. in
  let senders = [ 0; 5 ] in
  let sched =
    Params.schedule cfg
      ~lambda:(Induced.lambda cfg (Sinr.points sinr))
      Params.default_approg
  in
  let samples, _ =
    Measure.approx_progress_only sinr ~rng:(Rng.create 33) ~senders
      ~max_slots:(4 * sched.Params.epoch_slots)
  in
  (* delay is first-rcv; dedup means a listener never reports twice; the
     Measure API already encodes that — here we check samples are unique. *)
  let ids = List.map (fun s -> s.Measure.listener) samples in
  Alcotest.(check int) "unique listeners" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* ---------------- Theorem 6.1 / Figure 1 combinatorics ---------------- *)

let fig1 delta =
  (* Parameters chosen as in the paper: R(1-eps) = 10*delta.  The gap is
     nudged just inside the strong radius so the cross links survive float
     round-trips through the power computation. *)
  let gap0 = 10. *. float_of_int delta in
  let range = gap0 /. (1. -. cfg.Config.eps) in
  let c = Config.with_range ~range ~eps:cfg.Config.eps () in
  let gap = Config.strong_range c *. (1. -. 1e-9) in
  let tl = Placement.two_lines ~delta ~spacing:1. ~gap in
  (c, tl, Sinr.create c tl.Placement.points)

let test_fig1_pairing () =
  let c, tl, _ = fig1 6 in
  let strong = Induced.strong c tl.Placement.points in
  (* Each sender's only cross-line strong neighbor is its partner. *)
  Array.iteri
    (fun i v ->
      let cross =
        List.filter (fun u -> u >= 6) (Array.to_list (Graph.neighbors strong v))
      in
      Alcotest.(check (list int)) "single partner" [ tl.Placement.receivers.(i) ]
        cross)
    tl.Placement.senders

let test_fig1_single_sender_delivers () =
  let _, tl, sinr = fig1 6 in
  let v = tl.Placement.senders.(2) and u = tl.Placement.receivers.(2) in
  Alcotest.(check (option int)) "partner decodes" (Some v)
    (Sinr.reception sinr ~senders:[ v ] ~receiver:u)

let test_fig1_two_senders_block_everything () =
  let _, tl, sinr = fig1 6 in
  (* Any two concurrent senders: no cross-line reception anywhere. *)
  let pairs = [ (0, 1); (0, 5); (2, 3); (1, 4) ] in
  List.iter
    (fun (i, j) ->
      let senders = [ tl.Placement.senders.(i); tl.Placement.senders.(j) ] in
      Array.iter
        (fun u ->
          Alcotest.(check (option int))
            (Printf.sprintf "no delivery at u with senders %d,%d" i j) None
            (Sinr.reception sinr ~senders ~receiver:u))
        tl.Placement.receivers)
    pairs

let test_fig1_round_robin_needs_delta_slots () =
  (* The optimal centralized schedule transmits one v_i per slot.  The MAC
     only raises rcv events for messages from G_{1-eps}-neighbors (the
     Theorem 6.1 assumption), and u_j's only broadcasting strong neighbor
     is v_j — so the last receiver makes progress at slot delta:
     f_prog >= Delta. *)
  let delta = 6 in
  let c, tl, sinr = fig1 delta in
  let strong = Induced.strong c tl.Placement.points in
  let first = Array.make (Array.length tl.Placement.points) None in
  for slot = 0 to delta - 1 do
    let senders = [ tl.Placement.senders.(slot) ] in
    let out = Sinr.resolve sinr ~senders in
    Array.iteri
      (fun u s ->
        match s with
        | Some v when Graph.mem_edge strong u v && first.(u) = None ->
          first.(u) <- Some (slot + 1)
        | Some _ | None -> ())
      out
  done;
  let receiver_times =
    Array.to_list tl.Placement.receivers
    |> List.filter_map (fun u -> first.(u))
  in
  Alcotest.(check int) "every receiver reached" delta
    (List.length receiver_times);
  Alcotest.(check int) "last receiver waits delta slots" delta
    (List.fold_left max 0 receiver_times)

(* ---------------- Combined MAC (Algorithm 11.1) ---------------- *)

let test_combined_bcast_rcv_ack () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0.; Point.make 10. 0. |] in
  let sinr = Sinr.create cfg pts in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 41) in
  let rcvs = ref [] and acks = ref [] in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv =
        (fun ~node ~payload -> rcvs := (Combined_mac.now mac, node, payload) :: !rcvs);
      on_ack =
        (fun ~node ~payload -> acks := (Combined_mac.now mac, node, payload) :: !acks) };
  let p = Combined_mac.bcast mac ~node:1 ~data:99 in
  Alcotest.(check bool) "busy after bcast" true (Combined_mac.busy mac ~node:1);
  let budget = ref (Combined_mac.bounds mac).Absmac_intf.f_ack in
  while !acks = [] && !budget > 0 do
    Combined_mac.step mac;
    decr budget
  done;
  (match !acks with
   | [ (slot, 1, payload) ] ->
     Alcotest.(check bool) "ack within f_ack" true
       (slot <= (Combined_mac.bounds mac).Absmac_intf.f_ack);
     Alcotest.(check bool) "same payload" true
       (Events.payload_id payload = Events.payload_id p)
   | _ -> Alcotest.fail "expected one ack at node 1");
  Alcotest.(check bool) "not busy after ack" false (Combined_mac.busy mac ~node:1);
  (* Both neighbors received before the ack. *)
  let receivers = List.sort_uniq compare (List.map (fun (_, v, _) -> v) !rcvs) in
  Alcotest.(check (list int)) "neighbors got rcv" [ 0; 2 ] receivers;
  let ack_slot = match !acks with [ (s, _, _) ] -> s | _ -> 0 in
  List.iter
    (fun (s, _, _) -> Alcotest.(check bool) "rcv before ack" true (s <= ack_slot))
    !rcvs

let test_combined_rcv_dedup () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let sinr = Sinr.create cfg pts in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 43) in
  let count = ref 0 in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> incr count);
      on_ack = (fun ~node:_ ~payload:_ -> ()) };
  ignore (Combined_mac.bcast mac ~node:0 ~data:1);
  for _ = 1 to 4000 do
    Combined_mac.step mac
  done;
  Alcotest.(check int) "exactly one rcv for one payload" 1 !count

let test_combined_abort () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let sinr = Sinr.create cfg pts in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 44) in
  let acked = ref false in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack = (fun ~node:_ ~payload:_ -> acked := true) };
  ignore (Combined_mac.bcast mac ~node:0 ~data:1);
  Combined_mac.step mac;
  Combined_mac.abort mac ~node:0;
  Alcotest.(check bool) "not busy" false (Combined_mac.busy mac ~node:0);
  for _ = 1 to ((Combined_mac.bounds mac).Absmac_intf.f_ack + 10) do
    Combined_mac.step mac
  done;
  Alcotest.(check bool) "no ack after abort" false !acked

let test_combined_double_bcast_rejected () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let sinr = Sinr.create cfg pts in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 45) in
  ignore (Combined_mac.bcast mac ~node:0 ~data:1);
  Alcotest.(check bool) "rejected" true
    (try ignore (Combined_mac.bcast mac ~node:0 ~data:2); false
     with Invalid_argument _ -> true)

let test_combined_deterministic () =
  let run seed =
    let sinr = uniform_net 46 20 15. in
    let mac = Combined_mac.create sinr ~rng:(Rng.create seed) in
    let ack_slot = ref 0 in
    Combined_mac.set_handlers mac
      { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
        on_ack = (fun ~node:_ ~payload:_ -> ack_slot := Combined_mac.now mac) };
    ignore (Combined_mac.bcast mac ~node:0 ~data:1);
    let budget = ref 100_000 in
    while !ack_slot = 0 && !budget > 0 do
      Combined_mac.step mac;
      decr budget
    done;
    !ack_slot
  in
  Alcotest.(check int) "same seed same ack slot" (run 7) (run 7)

(* Algorithm B.1's round counters on a seeded run, pinned to the values
   the per-node decide walk produced before the even slot was batched:
   every node of a 4x4 grid broadcasts at once and re-broadcasts on each
   ack (three rounds), under a B.1 budget small enough that every ack is
   a halt, so the contender set grows, shrinks and halts nodes while
   the run lasts. *)
let test_combined_hm_counters () =
  Sinr_obs.Metrics.reset_for_tests ();
  Fun.protect ~finally:Sinr_obs.Metrics.reset_for_tests @@ fun () ->
  Sinr_obs.Metrics.set_enabled true;
  let sinr =
    Sinr.create cfg
      (Array.init 16 (fun i ->
           Point.make
             (4. *. float_of_int (i mod 4))
             (4. *. float_of_int (i / 4))))
  in
  let ack_params = { Params.default_ack with Params.tp_budget = 2.5 } in
  let mac = Combined_mac.create ~ack_params sinr ~rng:(Rng.create 23) in
  let rounds = Array.make 16 1 in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack =
        (fun ~node ~payload:_ ->
          if rounds.(node) < 3 then begin
            rounds.(node) <- rounds.(node) + 1;
            ignore (Combined_mac.bcast mac ~node ~data:rounds.(node))
          end) };
  for v = 0 to 15 do
    ignore (Combined_mac.bcast mac ~node:v ~data:1)
  done;
  for _ = 1 to 3 * (Combined_mac.bounds mac).Absmac_intf.f_ack do
    Combined_mac.step mac
  done;
  let count name =
    Sinr_obs.Metrics.counter_value (Sinr_obs.Metrics.counter name)
  in
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (count name))
    [ ("hm.slots", 27708); ("hm.tx", 954); ("hm.ramps", 3262);
      ("hm.halts", 48); ("mac.acks", 48); ("mac.acks_capped", 0) ]

(* ---------------- Measure.acks sanity ---------------- *)

let test_measure_acks_all_delivered () =
  let sinr = uniform_net 47 30 20. in
  let senders = [ 0; 7; 15; 22 ] in
  let samples =
    Measure.acks sinr ~rng:(Rng.create 48) ~senders ~max_slots:400_000
  in
  Alcotest.(check int) "sample per sender" (List.length senders)
    (List.length samples);
  List.iter
    (fun s ->
      Alcotest.(check bool) "reached <= neighbors" true
        (s.Measure.reached <= s.Measure.neighbors);
      Alcotest.(check bool) "positive delay" true (s.Measure.delay > 0))
    samples;
  (* eps_ack = 0.1: demand most broadcasts were nice. *)
  let nice =
    List.filter (fun s -> s.Measure.reached = s.Measure.neighbors) samples
  in
  Alcotest.(check bool) "most broadcasts nice" true
    (List.length nice >= List.length samples - 1)

let test_covered_listeners () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  Alcotest.(check (list int)) "covered" [ 1 ]
    (Measure.covered_listeners ~approx_graph:g ~senders:[ 0 ] ~n:4);
  Alcotest.(check (list int)) "sender not covered" [ 0; 2 ]
    (Measure.covered_listeners ~approx_graph:g ~senders:[ 1 ] ~n:4)

(* ---------------- Rcv_once ---------------- *)

(* Deliveries (receiver, origin, seq) over [k] nodes, each origin's seq
   nondecreasing: a step repeats the origin's current seq, or raises it by
   1 or by 3.  Receivers may be the origin itself. *)
let deliveries (k, steps) =
  let cur = Array.make k 0 in
  List.map
    (fun (r, o, bump) ->
      let r = r mod k and o = o mod k in
      cur.(o) <- cur.(o) + [| 0; 1; 3 |].(bump);
      (r, o, cur.(o)))
    steps

let payload o seq = { Events.origin = o; seq; data = 0 }

(* The outputs against the set of every (receiver, message) pair output
   so far: the same pairs, in the same order. *)
let prop_rcv_once_model =
  QCheck.Test.make ~name:"rcv once = set of output pairs" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(0 -- 200)
           (triple (int_range 0 5) (int_range 0 5) (int_range 0 2))))
    (fun input ->
      let k = fst input in
      let ds = deliveries input in
      let t = Rcv_once.create k in
      let seen = Hashtbl.create 64 in
      let model =
        List.filter
          (fun (r, o, s) ->
            r <> o
            && (not (Hashtbl.mem seen (r, o, s)))
            && (Hashtbl.add seen (r, o, s) ();
                true))
          ds
      in
      let got =
        List.filter (fun (r, o, s) -> Rcv_once.admit t ~node:r (payload o s)) ds
      in
      got = model)

let test_rcv_once_order_and_size () =
  let t = Rcv_once.create 3 in
  Alcotest.(check bool) "own message" false (Rcv_once.admit t ~node:0 (payload 0 0));
  Alcotest.(check int) "nothing held for an own message" 0 (Rcv_once.words t ~node:0);
  Alcotest.(check bool) "first seq 2" true (Rcv_once.admit t ~node:1 (payload 0 2));
  Alcotest.(check bool) "seq 2 again" false (Rcv_once.admit t ~node:1 (payload 0 2));
  (match Rcv_once.admit t ~node:1 (payload 0 1) with
   | _ -> Alcotest.fail "a lower seq was accepted"
   | exception Invalid_argument _ -> ());
  (* One origin re-broadcasting 1,000 times: the receiver's state is the
     size it had after the first. *)
  Alcotest.(check bool) "first of origin 2" true
    (Rcv_once.admit t ~node:0 (payload 2 0));
  let after_one = Rcv_once.words t ~node:0 in
  for seq = 1 to 999 do
    Alcotest.(check bool) "new seq" true (Rcv_once.admit t ~node:0 (payload 2 seq));
    Alcotest.(check bool) "repeat" false (Rcv_once.admit t ~node:0 (payload 2 seq))
  done;
  Alcotest.(check int) "words after 1,000 = after 1" after_one
    (Rcv_once.words t ~node:0)

let suite =
  [ Alcotest.test_case "schedule monotone in lambda" `Quick
      test_schedule_monotone_in_lambda;
    Alcotest.test_case "schedule layout" `Quick test_schedule_layout;
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "formulas monotone" `Quick test_formulas_monotone;
    Alcotest.test_case "contention default" `Quick test_contention_default;
    Alcotest.test_case "ideal: delivers all neighbors" `Quick
      test_ideal_delivers_all_neighbors;
    Alcotest.test_case "ideal: adversarial timing" `Quick
      test_ideal_adversarial_timing;
    Alcotest.test_case "ideal: busy and abort" `Quick test_ideal_busy_and_abort;
    Alcotest.test_case "ideal: isolated node acks" `Quick
      test_ideal_isolated_node_acks;
    Alcotest.test_case "hm: halts without reception" `Quick
      test_hm_halts_without_reception;
    Alcotest.test_case "hm: fallback on receptions" `Quick
      test_hm_fallback_on_receptions;
    Alcotest.test_case "hm: contention slows halt" `Quick
      test_hm_contention_slows_halt;
    Alcotest.test_case "hm: stop resets" `Quick test_hm_stop_resets;
    Alcotest.test_case "hm: pair delivery" `Quick test_hm_pair_delivery;
    Alcotest.test_case "decay cycle" `Quick test_decay_cycle;
    Alcotest.test_case "approg: epoch rollover" `Quick test_approg_epoch_rollover;
    Alcotest.test_case "approg: membership waits for epoch" `Quick
      test_approg_membership_waits_for_epoch;
    Alcotest.test_case "approg: progress on small net" `Slow
      test_approg_progress_small_net;
    Alcotest.test_case "approg: vacuous on Fig 1" `Quick
      test_approg_vacuous_on_fig1;
    Alcotest.test_case "approg: rcv dedup" `Slow test_approg_rcv_dedup;
    Alcotest.test_case "fig1: unique pairing" `Quick test_fig1_pairing;
    Alcotest.test_case "fig1: single sender delivers" `Quick
      test_fig1_single_sender_delivers;
    Alcotest.test_case "fig1: two senders block everything" `Quick
      test_fig1_two_senders_block_everything;
    Alcotest.test_case "fig1: round robin needs delta slots" `Quick
      test_fig1_round_robin_needs_delta_slots;
    Alcotest.test_case "combined: bcast/rcv/ack" `Quick test_combined_bcast_rcv_ack;
    Alcotest.test_case "combined: rcv dedup" `Quick test_combined_rcv_dedup;
    Alcotest.test_case "combined: abort" `Quick test_combined_abort;
    Alcotest.test_case "combined: double bcast rejected" `Quick
      test_combined_double_bcast_rejected;
    Alcotest.test_case "combined: deterministic" `Quick test_combined_deterministic;
    Alcotest.test_case "combined: hm counters pinned" `Quick
      test_combined_hm_counters;
    Alcotest.test_case "measure: acks all delivered" `Slow
      test_measure_acks_all_delivered;
    Alcotest.test_case "measure: covered listeners" `Quick test_covered_listeners;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1505 |])
      prop_rcv_once_model;
    Alcotest.test_case "rcv once: order contract and size" `Quick
      test_rcv_once_order_and_size ]
