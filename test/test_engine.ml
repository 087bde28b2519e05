(* Tests for the synchronous simulation engine. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine

let cfg = Config.default

let line_net n spacing =
  Sinr.create cfg (Placement.line ~n ~spacing)

let test_wakeup_semantics () =
  let eng = Engine.create (line_net 3 5.) in
  Alcotest.(check bool) "initially asleep" false (Engine.is_awake eng 0);
  Engine.wake eng 0;
  Alcotest.(check bool) "woken" true (Engine.is_awake eng 0);
  Alcotest.(check (list int)) "awake set" [ 0 ] (Engine.awake_nodes eng)

let test_asleep_nodes_do_not_transmit () =
  let eng = Engine.create (line_net 2 5.) in
  (* Nobody awake: decide must not be consulted; no deliveries. *)
  let consulted = ref false in
  let ds =
    Engine.step eng ~decide:(fun _ -> consulted := true; Engine.Listen)
  in
  Alcotest.(check bool) "decide not consulted" false !consulted;
  Alcotest.(check int) "no deliveries" 0 (List.length ds)

let test_delivery_and_wake_on_receive () =
  let eng = Engine.create (line_net 2 5.) in
  Engine.wake eng 0;
  let ds =
    Engine.step eng ~decide:(fun v ->
        if v = 0 then Engine.Transmit "hello" else Engine.Listen)
  in
  (match ds with
   | [ d ] ->
     Alcotest.(check int) "receiver" 1 d.Engine.receiver;
     Alcotest.(check int) "sender" 0 d.Engine.sender;
     Alcotest.(check string) "message" "hello" d.Engine.message
   | _ -> Alcotest.fail "expected exactly one delivery");
  Alcotest.(check bool) "receiver woke up" true (Engine.is_awake eng 1)

let test_no_wake_on_receive_opt_out () =
  let eng = Engine.create ~wake_on_receive:false (line_net 2 5.) in
  Engine.wake eng 0;
  let _ =
    Engine.step eng ~decide:(fun v ->
        if v = 0 then Engine.Transmit "x" else Engine.Listen)
  in
  Alcotest.(check bool) "receiver stays asleep" false (Engine.is_awake eng 1)

let test_crashed_nodes_silent () =
  let eng = Engine.create (line_net 2 5.) in
  Engine.wake eng 0;
  Engine.wake eng 1;
  Engine.crash eng 0;
  let ds =
    Engine.step eng ~decide:(fun _ -> Engine.Transmit "x")
  in
  (* Node 0 crashed: it neither transmits nor receives; node 1 transmits but
     no listener remains. *)
  Alcotest.(check int) "no deliveries" 0 (List.length ds);
  Alcotest.(check bool) "crashed not awake" false (Engine.is_awake eng 0);
  Alcotest.(check bool) "crashed cannot rewake" false
    (Engine.wake eng 0; Engine.is_awake eng 0)

(* Engine.step_select: a selector's senders are checked (ascending,
   eligible), and a raising selector leaves every message slot empty for
   the next one. *)
let test_step_select_contract () =
  let eng = Engine.create (line_net 3 5.) in
  Engine.wake eng 0;
  Engine.wake eng 2;
  let select_ids ids (sel : string Engine.selection) =
    List.iteri
      (fun i v ->
        sel.Engine.senders.(i) <- v;
        sel.Engine.messages.(v) <- Some "x")
      ids;
    List.length ids
  in
  let rejected ids =
    match Engine.step_select eng ~select:(select_ids ids) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "asleep sender rejected" true (rejected [ 1 ]);
  Alcotest.(check bool) "descending senders rejected" true (rejected [ 2; 0 ]);
  (match
     Engine.step_select eng ~select:(fun sel ->
         sel.Engine.messages.(0) <- Some "stale";
         failwith "select")
   with
   | _ -> Alcotest.fail "select's exception was swallowed"
   | exception Failure _ -> ());
  let clean = ref false in
  let ds =
    Engine.step_select eng ~select:(fun sel ->
        clean := Array.for_all Option.is_none sel.Engine.messages;
        select_ids [ 0 ] sel)
  in
  Alcotest.(check bool) "messages empty after a raise" true !clean;
  Alcotest.(check (list int)) "lone sender delivers" [ 1; 2 ]
    (List.map (fun d -> d.Engine.receiver) ds)

let test_slot_counter_and_totals () =
  (* wake_on_receive off so node 1 stays a pure listener. *)
  let eng = Engine.create ~wake_on_receive:false (line_net 2 5.) in
  Engine.wake eng 0;
  for _ = 1 to 5 do
    ignore (Engine.step eng ~decide:(fun _ -> Engine.Transmit "m"))
  done;
  Alcotest.(check int) "slots" 5 (Engine.slot eng);
  Alcotest.(check int) "tx total" 5 (Engine.tx_total eng);
  Alcotest.(check int) "deliveries" 5 (Engine.delivery_total eng)

let test_run_stop_condition () =
  let eng = Engine.create (line_net 2 5.) in
  Engine.wake eng 0;
  let got = ref false in
  let slots =
    Engine.run eng
      ~on_deliver:(fun _ -> got := true)
      ~decide:(fun _ -> Engine.Transmit "m")
      ~stop:(fun () -> !got)
      ~max_slots:100
  in
  Alcotest.(check bool) "stopped early" true (slots < 100);
  Alcotest.(check bool) "delivered" true !got

let test_run_max_slots () =
  let eng = Engine.create (line_net 2 100.) in
  (* Out of range: nothing ever delivered, must hit the slot cap. *)
  Engine.wake eng 0;
  let slots =
    Engine.run eng
      ~decide:(fun _ -> Engine.Transmit "m")
      ~stop:(fun () -> false)
      ~max_slots:37
  in
  Alcotest.(check int) "cap respected" 37 slots

let test_determinism_same_seed () =
  (* Full pipeline determinism: same seed, same deployment, same protocol
     randomness => identical delivery counts. *)
  let run_once seed =
    let rng = Rng.create seed in
    let pts =
      Placement.uniform rng ~n:30 ~box:(Box.square ~side:30.) ~min_dist:1.
    in
    let eng = Engine.create (Sinr.create cfg pts) in
    Engine.wake_all eng;
    for _ = 1 to 50 do
      ignore
        (Engine.step eng ~decide:(fun _ ->
             if Rng.bernoulli rng 0.2 then Engine.Transmit "m"
             else Engine.Listen))
    done;
    (Engine.tx_total eng, Engine.delivery_total eng)
  in
  Alcotest.(check bool) "same totals" true (run_once 99 = run_once 99);
  Alcotest.(check bool) "different seed usually differs" true
    (run_once 99 <> run_once 100)

(* ---------------- Trace ---------------- *)

let test_trace_order_and_count () =
  let t = Trace.create () in
  Trace.record t ~slot:1 (Trace.Bcast { node = 0; msg = 7 });
  Trace.record t ~slot:2 (Trace.Rcv { node = 1; msg = 7; from = 0 });
  Trace.record t ~slot:3 (Trace.Ack { node = 0; msg = 7 });
  let evs = Trace.events t in
  Alcotest.(check int) "count" 3 (List.length evs);
  (match evs with
   | { Trace.slot = 1; event = Trace.Bcast _ } :: _ -> ()
   | _ -> Alcotest.fail "oldest first");
  Alcotest.(check int) "rcv count" 1
    (Trace.count t (fun e ->
         match e.Trace.event with Trace.Rcv _ -> true | _ -> false))

let test_trace_capacity () =
  let t = Trace.create ~capacity:10 () in
  for i = 1 to 25 do
    Trace.record t ~slot:i (Trace.Note "x")
  done;
  Alcotest.(check bool) "dropped some" true (Trace.dropped t > 0);
  Alcotest.(check bool) "bounded" true (List.length (Trace.events t) <= 11)

let test_trace_find_first () =
  let t = Trace.create () in
  Trace.record t ~slot:5 (Trace.Ack { node = 1; msg = 3 });
  Trace.record t ~slot:9 (Trace.Ack { node = 2; msg = 3 });
  (match
     Trace.find_first t (fun e ->
         match e.Trace.event with Trace.Ack _ -> true | _ -> false)
   with
   | Some { Trace.slot; _ } -> Alcotest.(check int) "first ack slot" 5 slot
   | None -> Alcotest.fail "expected an ack")

(* ---------------- Fault ---------------- *)

let test_fault_plan () =
  let rng = Rng.create 4 in
  let plan =
    Fault.random_crashes rng ~n:10 ~count:3 ~horizon:50 ~protect:[ 0; 1 ]
  in
  Alcotest.(check int) "three crashes" 3 (List.length plan);
  List.iter
    (fun (slot, v) ->
      Alcotest.(check bool) "not protected" true (v <> 0 && v <> 1);
      Alcotest.(check bool) "slot in horizon" true (slot >= 0 && slot < 50))
    plan

let test_fault_apply () =
  let eng = Engine.create (line_net 4 5.) in
  Engine.wake_all eng;
  let plan = [ (0, 2); (100, 3) ] in
  let crashed, rest = Fault.apply plan eng in
  Alcotest.(check (list int)) "crashed now" [ 2 ] crashed;
  Alcotest.(check int) "one pending" 1 (List.length rest);
  Alcotest.(check bool) "engine reflects crash" true (Engine.is_crashed eng 2)

let suite =
  [ Alcotest.test_case "wakeup semantics" `Quick test_wakeup_semantics;
    Alcotest.test_case "asleep nodes do not transmit" `Quick
      test_asleep_nodes_do_not_transmit;
    Alcotest.test_case "delivery + wake on receive" `Quick
      test_delivery_and_wake_on_receive;
    Alcotest.test_case "wake_on_receive opt out" `Quick
      test_no_wake_on_receive_opt_out;
    Alcotest.test_case "crashed nodes silent" `Quick test_crashed_nodes_silent;
    Alcotest.test_case "step_select contract" `Quick test_step_select_contract;
    Alcotest.test_case "slot counter and totals" `Quick
      test_slot_counter_and_totals;
    Alcotest.test_case "run stop condition" `Quick test_run_stop_condition;
    Alcotest.test_case "run max slots" `Quick test_run_max_slots;
    Alcotest.test_case "determinism per seed" `Quick test_determinism_same_seed;
    Alcotest.test_case "trace order and count" `Quick test_trace_order_and_count;
    Alcotest.test_case "trace capacity" `Quick test_trace_capacity;
    Alcotest.test_case "trace find first" `Quick test_trace_find_first;
    Alcotest.test_case "fault plan" `Quick test_fault_plan;
    Alcotest.test_case "fault apply" `Quick test_fault_apply ]
