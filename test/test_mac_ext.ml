(* Extended MAC-layer tests: exact local broadcast (Remark 4.6), the oracle
   machine, traces, wire contents, and the received power of an engine
   outcome. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_engine
open Sinr_mac

let cfg = Config.default (* R = 12, strong 10.8, approx 9.6 *)

(* A 3-node line where node 2 is a weak-only neighbor of node 0:
   d(0,1) = 5 (strong), d(0,2) = 11.5 in (10.8, 12). *)
let weak_link_pts =
  [| Point.make 0. 0.; Point.make 5. 0.; Point.make 11.5 0. |]

let test_engine_reports_power () =
  let sinr = Sinr.create cfg weak_link_pts in
  let eng = Engine.create sinr in
  Engine.wake eng 0;
  let k =
    Engine.step_select eng ~select:(Engine.walk eng ~decide:(fun _ -> Some "m"))
  in
  for i = 0 to k - 1 do
    let u = Engine.receiver eng i in
    let v = Engine.sender_of eng u in
    let dist = Point.dist weak_link_pts.(v) weak_link_pts.(u) in
    let expect = cfg.Config.power /. (dist ** cfg.Config.alpha) in
    Alcotest.(check (float 1e-9)) "power = P/d^alpha" expect
      (Sinr.power sinr ~sender:v ~receiver:u)
  done;
  Alcotest.(check int) "both listeners decoded" 2 k

let run_mac ?exact ~slots pts ~senders =
  let sinr = Sinr.create cfg pts in
  let mac = Combined_mac.create ?exact sinr ~rng:(Rng.create 77) in
  let rcvs = ref [] in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node ~payload:_ -> rcvs := node :: !rcvs);
      on_ack = (fun ~node:_ ~payload:_ -> ()) };
  List.iter (fun v -> ignore (Combined_mac.bcast mac ~node:v ~data:v)) senders;
  for _ = 1 to slots do
    Combined_mac.step mac
  done;
  List.sort_uniq compare !rcvs

let test_exact_mode_filters_weak_links () =
  (* Non-exact: the weak-only node 2 eventually gets a rcv; exact: never. *)
  let plain = run_mac ~slots:6000 weak_link_pts ~senders:[ 0 ] in
  Alcotest.(check (list int)) "plain mode reaches both" [ 1; 2 ] plain;
  let exact = run_mac ~exact:true ~slots:6000 weak_link_pts ~senders:[ 0 ] in
  Alcotest.(check (list int)) "exact mode reaches only the strong neighbor"
    [ 1 ] exact

let test_exact_mode_keeps_strong_boundary () =
  (* A receiver exactly at the strong radius must still be served. *)
  let d = Config.strong_range cfg *. (1. -. 1e-9) in
  let pts = [| Point.make 0. 0.; Point.make d 0. |] in
  let got = run_mac ~exact:true ~slots:6000 pts ~senders:[ 0 ] in
  Alcotest.(check (list int)) "boundary neighbor served" [ 1 ] got

(* ---------------- Oracle machine ---------------- *)

let uniform_net seed n side =
  let rng = Rng.create seed in
  Sinr.create cfg (Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.)

let test_oracle_progress () =
  let sinr = uniform_net 81 40 22. in
  let senders = List.filter (fun v -> v mod 2 = 0) (List.init 40 Fun.id) in
  let samples =
    Measure.approx_progress_oracle sinr ~rng:(Rng.create 82) ~senders
      ~max_slots:50_000
  in
  let ok = List.filter (fun s -> s.Measure.delay <> None) samples in
  Alcotest.(check bool) "has listeners" true (List.length samples > 0);
  Alcotest.(check bool) "most progressed" true
    (float_of_int (List.length ok) >= 0.8 *. float_of_int (List.length samples))

let test_oracle_faster_than_distributed () =
  let sinr = uniform_net 83 40 22. in
  let senders = List.filter (fun v -> v mod 2 = 0) (List.init 40 Fun.id) in
  let sched =
    Params.schedule cfg
      ~lambda:(Induced.lambda cfg (Sinr.points sinr))
      Params.default_approg
  in
  let mean samples =
    let ds =
      List.filter_map
        (fun (s : Measure.approg_sample) -> Option.map float_of_int s.Measure.delay)
        samples
    in
    List.fold_left ( +. ) 0. ds /. float_of_int (max 1 (List.length ds))
  in
  let dist, _ =
    Measure.approx_progress_only sinr ~rng:(Rng.create 84) ~senders
      ~max_slots:(6 * sched.Params.epoch_slots)
  in
  let orac =
    Measure.approx_progress_oracle sinr ~rng:(Rng.create 85) ~senders
      ~max_slots:(6 * sched.Params.epoch_slots)
  in
  Alcotest.(check bool) "oracle strictly faster" true (mean orac < mean dist)

let test_oracle_membership_epochs () =
  let sinr = uniform_net 86 10 12. in
  let m = Approx_oracle.create Params.default_approg sinr ~rng:(Rng.create 87) in
  Alcotest.(check bool) "no members initially" true
    (List.for_all (fun v -> not (Approx_oracle.member m ~node:v)) (List.init 10 Fun.id));
  Approx_oracle.start m ~node:3 { Events.origin = 3; seq = 0; data = 0 };
  for _ = 1 to Approx_oracle.epoch_slots m do
    ignore (Approx_oracle.end_slot m)
  done;
  Alcotest.(check int) "epoch advanced" 1 (Approx_oracle.epoch_index m);
  Alcotest.(check bool) "joined at epoch boundary" true
    (Approx_oracle.member m ~node:3)

(* ---------------- Traces through the combined MAC ---------------- *)

let test_combined_trace_records () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let sinr = Sinr.create cfg pts in
  let trace = Trace.create () in
  let mac = Combined_mac.create ~trace sinr ~rng:(Rng.create 88) in
  ignore (Combined_mac.bcast mac ~node:0 ~data:1);
  let budget = ref 100_000 in
  while Combined_mac.busy mac ~node:0 && !budget > 0 do
    Combined_mac.step mac;
    decr budget
  done;
  let count kind =
    Trace.count trace (fun e ->
        match (e.Trace.event, kind) with
        | Trace.Bcast _, `B | Trace.Rcv _, `R | Trace.Ack _, `A -> true
        | _ -> false)
  in
  Alcotest.(check int) "one bcast" 1 (count `B);
  Alcotest.(check int) "one rcv" 1 (count `R);
  Alcotest.(check int) "one ack" 1 (count `A);
  (* Event order: bcast before rcv before ack. *)
  let slot_of kind =
    match
      Trace.find_first trace (fun e ->
          match (e.Trace.event, kind) with
          | Trace.Bcast _, `B | Trace.Rcv _, `R | Trace.Ack _, `A -> true
          | _ -> false)
    with
    | Some e -> e.Trace.slot
    | None -> -1
  in
  Alcotest.(check bool) "bcast <= rcv" true (slot_of `B <= slot_of `R);
  Alcotest.(check bool) "rcv <= ack" true (slot_of `R <= slot_of `A)

(* ---------------- HM wire contents ---------------- *)

let test_hm_transmits_its_payload () =
  let hm =
    Hm_ack.create Params.default_ack ~lambda:4. ~n:1 ~rng:(Rng.create 90)
  in
  let payload = { Events.origin = 0; seq = 5; data = 42 } in
  Hm_ack.start hm ~node:0 payload;
  let seen = ref false in
  for _ = 1 to 50_000 do
    match Hm_ack.decide hm ~node:0 with
    | Some (Events.Data p) ->
      seen := true;
      Alcotest.(check bool) "payload preserved" true
        (Events.payload_id p = (0, 5) && p.Events.data = 42)
    | Some _ -> Alcotest.fail "HM must transmit Data wires"
    | None -> ()
  done;
  Alcotest.(check bool) "transmitted at least once" true !seen

(* ---------------- Measure.progress source statistics ---------------- *)

let test_progress_can_come_from_weak_links_by_default () =
  (* Remark 4.6: without range detection, rcv events may originate from
     transmitters outside G_{1-eps} but inside G_1.  Verify our MAC indeed
     reports such receptions on the weak-link construction. *)
  let sinr = Sinr.create cfg weak_link_pts in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 91) in
  let weak_hits = ref 0 in
  let strong = Induced.strong cfg weak_link_pts in
  Combined_mac.set_raw_rcv_hook mac (fun ev ->
      if not (Graph.mem_edge strong ev.Approx_progress.node ev.Approx_progress.from)
      then incr weak_hits);
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack = (fun ~node:_ ~payload:_ -> ()) };
  ignore (Combined_mac.bcast mac ~node:0 ~data:1);
  for _ = 1 to 8000 do
    Combined_mac.step mac
  done;
  Alcotest.(check bool) "weak-link rcv observed" true (!weak_hits > 0)

let suite =
  [ Alcotest.test_case "engine reports received power" `Quick
      test_engine_reports_power;
    Alcotest.test_case "exact mode filters weak links" `Quick
      test_exact_mode_filters_weak_links;
    Alcotest.test_case "exact mode keeps strong boundary" `Quick
      test_exact_mode_keeps_strong_boundary;
    Alcotest.test_case "oracle progress" `Quick test_oracle_progress;
    Alcotest.test_case "oracle faster than distributed" `Slow
      test_oracle_faster_than_distributed;
    Alcotest.test_case "oracle membership epochs" `Quick
      test_oracle_membership_epochs;
    Alcotest.test_case "combined trace records" `Quick test_combined_trace_records;
    Alcotest.test_case "hm transmits its payload" `Quick
      test_hm_transmits_its_payload;
    Alcotest.test_case "weak-link rcv by default (Remark 4.6)" `Quick
      test_progress_can_come_from_weak_links_by_default ]
