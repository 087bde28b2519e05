(* The O(active) slot path: the contender walk must reproduce the full
   node scan exactly, and the sparse kernel's per-listener silence skip
   must never change a decision.

   - Node_set walks are checked against a model (a bool array scanned
     0..n-1, membership tested at visit time) under random updates made
     from inside the walk, and the ascending view against the sorted
     members and the walk order.
   - Engine.step over a contender set is checked against the full scan on
     generated placements with decide functions that are pure off the
     set: same deliveries, same wake/crash trace, same later RNG draws.
   - Hm_ack's batched selection is checked against the per-node decide
     walk it replaced: same senders in the same order, same messages,
     same due additions, same next RNG draw.
   - Combined_mac edge cases (an on_ack that starts a broadcast at a
     higher id, crashed or not, mid-scan; abort; crash mid-broadcast; an
     on_ack that crashes busy nodes above and below it; crash and revive
     between two passes) are pinned to trace digests recorded on the full
     scans the contender walk and the ack due-set replaced.
   - The ack pass is checked on random scripts: after every step no busy
     node is crashed, halted or at its f_ack cap.
   - Bmmb's pending walk and completion cursor are checked against the
     full scans they replaced, over an ideal MAC with crashes.
   - The sparse skip is checked at the decoding boundary R, R +- 1 ulp,
     R +- 1e-9, alone and under interference.
   - The engine's O(events) telemetry counters (listens, collision loss,
     silence) are checked slot by slot against the O(n) scans, and the
     neighbourhood iterator behind them against the in_range scan. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_mac
open Sinr_obs

let cfg = Config.default

(* ---------------- Node_set against a model scan ---------------- *)

let elements s =
  let acc = ref [] in
  Node_set.iter s (fun v -> acc := v :: !acc);
  List.rev !acc

(* One op stream drives both sides: before the walk, and from inside
   each visit.  The model is the full scan the walk replaces. *)
let random_op ops ~n ~add ~remove =
  let v = Rng.int ops n in
  match Rng.int ops 3 with
  | 0 -> add v
  | 1 -> remove v
  | _ -> ()

let model_run ~seed ~n ~walks =
  let ops = Rng.create seed in
  let mem = Array.make n false in
  let add v = mem.(v) <- true and remove v = mem.(v) <- false in
  let visits = Buffer.create 256 in
  for _ = 1 to walks do
    for _ = 1 to 1 + Rng.int ops 6 do
      random_op ops ~n ~add ~remove
    done;
    for v = 0 to n - 1 do
      if mem.(v) then begin
        Printf.bprintf visits "%d," v;
        if Rng.bernoulli ops 0.5 then random_op ops ~n ~add ~remove
      end
    done;
    Buffer.add_char visits '|'
  done;
  (Buffer.contents visits, List.filter (fun v -> mem.(v)) (List.init n Fun.id))

let set_run ~seed ~n ~walks =
  let ops = Rng.create seed in
  let s = Node_set.create n in
  let add v = Node_set.add s v and remove v = Node_set.remove s v in
  let visits = Buffer.create 256 in
  for _ = 1 to walks do
    for _ = 1 to 1 + Rng.int ops 6 do
      random_op ops ~n ~add ~remove
    done;
    Node_set.iter s (fun v ->
        Printf.bprintf visits "%d," v;
        if Rng.bernoulli ops 0.5 then random_op ops ~n ~add ~remove);
    Buffer.add_char visits '|'
  done;
  (Buffer.contents visits, elements s)

let prop_node_set_model =
  QCheck.Test.make ~name:"node set walk = membership scan" ~count:200
    QCheck.(pair (int_range 1 100_000) (int_range 1 40))
    (fun (seed, n) ->
      model_run ~seed ~n ~walks:12 = set_run ~seed ~n ~walks:12)

let test_node_set_walk_edges () =
  let s = Node_set.create 10 in
  List.iter (Node_set.add s) [ 7; 2; 5 ];
  let seen = ref [] in
  Node_set.iter s (fun v ->
      seen := v :: !seen;
      if v = 2 then begin
        Node_set.add s 9;      (* above the cursor: visited this walk *)
        Node_set.add s 1;      (* below it: next walk *)
        Node_set.remove s 5    (* not yet visited: skipped *)
      end;
      if v = 7 then Node_set.add s 8);
  Alcotest.(check (list int)) "walk order" [ 2; 7; 8; 9 ] (List.rev !seen);
  Alcotest.(check (list int)) "members" [ 1; 2; 7; 8; 9 ] (elements s);
  Alcotest.check_raises "reentrant walk"
    (Invalid_argument "Node_set.iter: reentrant walk") (fun () ->
      Node_set.iter s (fun _ -> Node_set.iter s ignore));
  Alcotest.check_raises "view inside a walk"
    (Invalid_argument "Node_set.ascending: inside a walk") (fun () ->
      Node_set.iter s (fun _ -> ignore (Node_set.ascending s)));
  (* A raising callback leaves the set intact. *)
  (try Node_set.iter s (fun v -> if v = 2 then failwith "boom") with
   | Failure _ -> ());
  Alcotest.(check (list int)) "after a raise" [ 1; 2; 7; 8; 9 ]
    (elements s);
  Node_set.clear s;
  Alcotest.(check (list int)) "cleared" [] (elements s);
  Node_set.add s 3;
  Alcotest.(check bool) "re-add after clear" true (Node_set.mem s 3)

(* The ascending view against the model, between walks that update the
   set from their callback: the view is the sorted members and the order
   a walk visits, and viewing leaves every member to the next walk
   exactly once. *)
let prop_node_set_view =
  QCheck.Test.make ~name:"node set view = sorted members" ~count:200
    QCheck.(pair (int_range 1 100_000) (int_range 1 40))
    (fun (seed, n) ->
      let ops = Rng.create seed in
      let s = Node_set.create n in
      let mem = Array.make n false in
      let add v =
        Node_set.add s v;
        mem.(v) <- true
      and remove v =
        Node_set.remove s v;
        mem.(v) <- false
      in
      let view () =
        Array.to_list (Array.sub (Node_set.ascending s) 0 (Node_set.cardinal s))
      in
      let model () = List.filter (fun v -> mem.(v)) (List.init n Fun.id) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 12 do
        for _ = 1 to Rng.int ops 6 do
          random_op ops ~n ~add ~remove
        done;
        if Rng.bool ops then expect (view () = model ());
        Node_set.iter s (fun _ ->
            if Rng.bernoulli ops 0.5 then random_op ops ~n ~add ~remove);
        for _ = 1 to Rng.int ops 3 do
          random_op ops ~n ~add ~remove
        done;
        let v1 = view () in
        expect (v1 = model ());
        expect (view () = v1);
        expect (elements s = v1);
        expect (Node_set.cardinal s = List.length v1)
      done;
      !ok)

(* ---------------- Engine.step: contender walk = full scan ---------------- *)

(* A slot-by-slot run where only [member] nodes may transmit, drawing
   from [drv]; the scenario (wakes, crashes, revivals, membership) comes
   from its own stream, identical in both runs. *)
let engine_run ~seed ~use_set =
  let ops = Rng.create seed in
  let n = 8 + Rng.int ops 40 in
  let side = 4. *. sqrt (float_of_int n) in
  let pts = Placement.uniform ops ~n ~box:(Box.square ~side) ~min_dist:1. in
  let trace = Trace.create ~capacity:100_000 () in
  let eng = Engine.create ~trace (Sinr.create cfg pts) in
  let drv = Rng.create (seed + 1) in
  let set = Node_set.create n in
  let member = Array.make n false in
  let log = Buffer.create 1024 in
  let consulted = ref 0 in
  for slot = 0 to 40 do
    for _ = 1 to 4 do
      let v = Rng.int ops n in
      match Rng.int ops 6 with
      | 0 -> Engine.wake eng v
      | 1 -> if Rng.bernoulli ops 0.3 then Engine.crash eng v
      | 2 -> Engine.revive eng v
      | 3 ->
        member.(v) <- true;
        Node_set.add set v
      | 4 ->
        member.(v) <- false;
        Node_set.remove set v
      | _ -> ()
    done;
    let decide v =
      incr consulted;
      if member.(v) && Rng.bernoulli drv 0.35 then Engine.Transmit (v, slot)
      else Engine.Listen
    in
    let ds =
      if use_set then Engine.step ~contenders:set eng ~decide
      else Engine.step eng ~decide
    in
    List.iter
      (fun (d : (int * int) Engine.delivery) ->
        let v, s = d.Engine.message in
        Printf.bprintf log "%d<%d:%d/%d:%h;" d.Engine.receiver d.Engine.sender v
          s d.Engine.power)
      ds;
    Buffer.add_char log '\n'
  done;
  Buffer.add_string log (Trace.to_jsonl trace);
  Printf.bprintf log "|%d|%d|%d" (Engine.tx_total eng)
    (Engine.delivery_total eng) (Rng.int drv 1_000_000);
  (Buffer.contents log, !consulted)

let prop_engine_contenders =
  QCheck.Test.make ~name:"engine: contender walk = full scan" ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let full, full_calls = engine_run ~seed ~use_set:false in
      let walk, walk_calls = engine_run ~seed ~use_set:true in
      full = walk && walk_calls <= full_calls)

(* ---------------- Hm_ack.select = per-node decide walk ---------------- *)

(* Small budgets so broadcasts ramp, fall back and halt within the run. *)
let hm_params =
  { Params.default_ack with
    Params.contention_bound = Some 2;
    tp_budget = 0.3;
    fallback_threshold = 0.5;
    eps_ack = 0.5 }

let wire_id = function
  | Events.Data p -> Printf.sprintf "d%d.%d" p.Events.origin p.Events.seq
  | Events.Probe | Events.Neighbor_list _ | Events.Mis_round _
  | Events.Decay _ ->
    "other"

(* Both sides run the same scenario on their own engine, machine and
   sets: random bcasts (added to the contender set between slots), acks
   of halted broadcasts, aborts, crashes, revivals and wakes.  The walk
   side is Combined_mac's former even slot: [decide] per contender,
   adding halted ones to [due].  The log holds, per slot, the senders in
   selection order with their messages, the deliveries and the due set;
   then the machine's next RNG draw. *)
let hm_select_run ~seed ~batch =
  let ops = Rng.create seed in
  let n = 6 + Rng.int ops 30 in
  let side = 3. *. sqrt (float_of_int n) in
  let pts = Placement.uniform ops ~n ~box:(Box.square ~side) ~min_dist:1. in
  let eng = Engine.create (Sinr.create cfg pts) in
  let hm_rng = Rng.create (seed + 1) in
  let hm = Hm_ack.create hm_params ~lambda:4. ~n ~rng:hm_rng in
  let ongoing = Node_set.create n and due = Node_set.create n in
  let log = Buffer.create 1024 in
  let stop v =
    Hm_ack.stop hm ~node:v;
    Node_set.remove ongoing v
  in
  for slot = 0 to 80 do
    for _ = 1 to 3 do
      let v = Rng.int ops n in
      match Rng.int ops 7 with
      | 0 | 1 ->
        if not (Node_set.mem ongoing v) then begin
          Engine.wake eng v;
          Hm_ack.start hm ~node:v { Events.origin = v; seq = slot; data = 0 };
          Node_set.add ongoing v
        end
      | 2 -> if Hm_ack.halted hm ~node:v then stop v
      | 3 -> if Rng.bernoulli ops 0.2 then stop v
      | 4 -> if Rng.bernoulli ops 0.3 then Engine.crash eng v
      | 5 -> Engine.revive eng v
      | _ -> Engine.wake eng v
    done;
    let picked v w = Printf.bprintf log "%d:%s," v (wire_id w) in
    let ds =
      if batch then
        Engine.step_select eng ~select:(fun sel ->
            let k = Hm_ack.select hm ~contenders:ongoing ~due sel in
            for i = 0 to k - 1 do
              let v = sel.Engine.senders.(i) in
              picked v (Option.get sel.Engine.messages.(v))
            done;
            k)
      else
        Engine.step ~contenders:ongoing eng ~decide:(fun v ->
            let w = Hm_ack.decide hm ~node:v in
            if Hm_ack.halted hm ~node:v then Node_set.add due v;
            match w with
            | Some w ->
              picked v w;
              Engine.Transmit w
            | None -> Engine.Listen)
    in
    Buffer.add_char log '>';
    List.iter
      (fun (d : Events.wire Engine.delivery) ->
        Hm_ack.on_receive hm ~node:d.Engine.receiver;
        Printf.bprintf log "%d<%d;" d.Engine.receiver d.Engine.sender)
      ds;
    Buffer.add_string log " due";
    Node_set.iter due (fun v -> Printf.bprintf log " %d" v);
    Node_set.clear due;
    Buffer.add_char log '\n'
  done;
  Printf.bprintf log "next %d" (Rng.int hm_rng 1_000_000);
  Buffer.contents log

let prop_hm_select =
  QCheck.Test.make ~name:"hm: batch selection = decide walk" ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed -> hm_select_run ~seed ~batch:true = hm_select_run ~seed ~batch:false)

(* ---------------- Combined_mac edge cases, pinned ---------------- *)

(* A 4x4 grid, spacing 4: every node contends with its neighbours. *)
let grid_net () =
  Sinr.create cfg
    (Array.init 16 (fun i ->
         Point.make
           (4. *. float_of_int (i mod 4))
           (4. *. float_of_int (i / 4))))

(* Run one scripted scenario and digest everything observable: the full
   absMAC/fault trace plus the engine totals. *)
let mac_digest ~seed ~script =
  let trace = Trace.create ~capacity:1_000_000 () in
  let mac = Combined_mac.create ~trace (grid_net ()) ~rng:(Rng.create seed) in
  let eng = Combined_mac.engine mac in
  let on_ack = ref (fun ~node:_ -> ()) in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack = (fun ~node ~payload:_ -> !on_ack ~node) };
  let bcast v =
    if not (Combined_mac.busy mac ~node:v) then
      ignore (Combined_mac.bcast mac ~node:v ~data:v)
  in
  let at = script ~mac ~bcast ~on_ack in
  let horizon = 3 * (Combined_mac.bounds mac).Absmac_intf.f_ack in
  for slot = 0 to horizon do
    at slot;
    Combined_mac.step mac
  done;
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d" (Trace.to_jsonl trace) (Engine.tx_total eng)
          (Engine.delivery_total eng)))

(* on_ack starts broadcasts mid-scan: above the acking node (live and
   crashed — the crashed one is dropped in the same pass), below it
   (next pass), and aborts a higher broadcast before the scan reaches it. *)
let script_ack_chain ~mac ~bcast ~on_ack =
  let eng = Combined_mac.engine mac in
  let rounds = ref 0 in
  (on_ack :=
     fun ~node ->
       incr rounds;
       if !rounds < 12 then
         match node with
         | 1 ->
           bcast 11;
           bcast 13;
           bcast 0
         | 6 ->
           Combined_mac.abort mac ~node:11;
           bcast 6
         | 0 -> bcast 14
         | v -> bcast ((v + 5) mod 16));
  fun slot ->
    if slot = 0 then begin
      Engine.crash eng 13;
      bcast 1;
      bcast 6
    end

let script_abort ~mac ~bcast ~on_ack:_ =
 fun slot ->
  if slot = 0 then List.iter bcast [ 2; 5; 9 ];
  if slot = 41 then Combined_mac.abort mac ~node:5;
  if slot = 42 then bcast 5;
  if slot = 300 then Combined_mac.abort mac ~node:9

let script_crash ~mac ~bcast ~on_ack:_ =
  let eng = Combined_mac.engine mac in
  fun slot ->
    if slot = 0 then List.iter bcast [ 3; 8; 12 ];
    if slot = 31 then Engine.crash eng 8;
    if slot = 32 then Engine.crash eng 7;
    if slot = 250 then begin
      Engine.revive eng 8;
      Engine.revive eng 7;
      bcast 8
    end

(* on_ack crashes busy nodes mid-scan: the lowest one above the acking
   node (the scan reaches it in this same pass and drops it) and the
   highest one below it (dropped on the next pass).  Broadcasters are also
   crashed and revived between two passes, which must not drop them, and
   later revived and restarted. *)
let script_ack_crash ~mac ~bcast ~on_ack =
  let eng = Combined_mac.engine mac in
  let busy v = Combined_mac.busy mac ~node:v in
  let ids = List.init 16 Fun.id in
  let rounds = ref 0 in
  (on_ack :=
     fun ~node ->
       incr rounds;
       if !rounds < 10 then begin
         (match List.find_opt (fun v -> v > node && busy v) ids with
          | Some v -> Engine.crash eng v
          | None -> ());
         (match List.find_opt (fun v -> v < node && busy v) (List.rev ids) with
          | Some v -> Engine.crash eng v
          | None -> ());
         bcast ((node + 7) mod 16)
       end);
  fun slot ->
    if slot = 0 then List.iter bcast [ 1; 3; 4; 6; 9; 10; 12; 15 ];
    if slot = 17 then begin
      Engine.crash eng 4;
      Engine.crash eng 9;
      Engine.revive eng 4;
      Engine.revive eng 9
    end;
    if slot = 2000 then
      List.iter
        (fun v ->
          if Engine.is_crashed eng v then begin
            Engine.revive eng v;
            bcast v
          end)
        ids

(* Recorded on the full-scan implementations: the first four before
   Engine.step took a contender set, the "ack crash" pair before the ack
   pass walked a due-set.  Any change here means the slot path changed
   outcomes. *)
let pinned =
  [ ("ack chain", 3, script_ack_chain, "b890a6c740c879db85bf48a2ee661d15");
    ("ack chain", 4, script_ack_chain, "a701ab4148c03a4c2df3581fd18828c3");
    ("abort", 5, script_abort, "50fd0da83b261f8cae8fea03b83b5a7c");
    ( "crash mid-broadcast", 6, script_crash,
      "4f75235a3656a52a7246bdd7fae2cb66" );
    ("ack crash", 7, script_ack_crash, "0682823b675393c90d758d8a22658ef2");
    ("ack crash", 8, script_ack_crash, "c2b96773b06e825026efc100181b94eb") ]

let test_mac_pinned () =
  List.iter
    (fun (name, seed, script, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s (seed %d)" name seed)
        want (mac_digest ~seed ~script))
    pinned

(* ---------------- Combined_mac: nothing left due ---------------- *)

(* A short f_ack cap (eps_ack = 0.5).  On this grid B.1 halts well inside
   it at tp_budget 1.5 and seldom reaches its budget by it at 4, so even
   seeds exercise halts and odd seeds mostly the cap. *)
let quick_ack ~seed =
  { Params.default_ack with
    Params.tp_budget = (if seed mod 2 = 0 then 1.5 else 4.);
    eps_ack = 0.5 }

type ack_pass = { ok : bool; halts : int; caps : int; drops : int }

(* A random script of bcast / abort / crash / revive / crash-and-revive
   inputs between slots, and an [on_ack] that starts or crashes a random
   node.  After every step no busy node may be crashed, halted, or at its
   f_ack cap: the pass must have acked or dropped it.  The one exception
   is a node an [on_ack] started or crashed at or below the acking id,
   which the pass has already moved past (as a full scan would have). *)
let ack_pass_run ~seed =
  let mac =
    Combined_mac.create ~ack_params:(quick_ack ~seed) (grid_net ())
      ~rng:(Rng.create seed)
  in
  let eng = Combined_mac.engine mac and hm = Combined_mac.hm mac in
  let f_ack = (Combined_mac.bounds mac).Absmac_intf.f_ack in
  let n = 16 in
  let ops = Rng.create (seed + 1) in
  let start = Array.make n 0 and exempt = Array.make n false in
  let halts = ref 0 and caps = ref 0 in
  let bcast v =
    if not (Combined_mac.busy mac ~node:v) then begin
      start.(v) <- Combined_mac.now mac;
      ignore (Combined_mac.bcast mac ~node:v ~data:v)
    end
  in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack =
        (fun ~node ~payload:_ ->
          if Combined_mac.last_ack_capped mac ~node then incr caps
          else incr halts;
          let w = Rng.int ops n in
          match Rng.int ops 3 with
          | 0 ->
            bcast w;
            if w <= node then exempt.(w) <- true
          | 1 ->
            Engine.crash eng w;
            if w <= node then exempt.(w) <- true
          | _ -> ()) };
  let drops0 = Metrics.counter_value (Metrics.counter "mac.crash_drops") in
  let ok = ref true in
  for _ = 1 to 3 * f_ack do
    if Rng.bernoulli ops 0.03 then
      for _ = 0 to Rng.int ops 3 do
        let v = Rng.int ops n in
        match Rng.int ops 5 with
        | 0 | 1 -> bcast v
        | 2 -> Combined_mac.abort mac ~node:v
        | 3 -> Engine.crash eng v
        | _ ->
          Engine.crash eng v;
          Engine.revive eng v
      done;
    if Rng.bernoulli ops 0.02 then Engine.revive eng (Rng.int ops n);
    Array.fill exempt 0 n false;
    Combined_mac.step mac;
    let now = Combined_mac.now mac in
    for v = 0 to n - 1 do
      if
        Combined_mac.busy mac ~node:v
        && (not exempt.(v))
        && (Engine.is_crashed eng v
           || Hm_ack.halted hm ~node:v
           || now - start.(v) >= f_ack)
      then ok := false
    done
  done;
  { ok = !ok;
    halts = !halts;
    caps = !caps;
    drops = Metrics.counter_value (Metrics.counter "mac.crash_drops") - drops0 }

let prop_ack_pass =
  QCheck.Test.make ~name:"combined mac: ack pass leaves nothing due"
    ~count:30
    QCheck.(int_range 1 100_000)
    (fun seed -> (ack_pass_run ~seed).ok)

(* The script above is not vacuous: two runs meet all three ways out. *)
let test_ack_pass_coverage () =
  Metrics.with_enabled (fun () ->
      let even = ack_pass_run ~seed:12 and odd = ack_pass_run ~seed:11 in
      Alcotest.(check bool) "nothing left due" true (even.ok && odd.ok);
      Alcotest.(check bool) "B.1 halts" true (even.halts > 0);
      Alcotest.(check bool) "f_ack caps" true (odd.caps > 0);
      Alcotest.(check bool) "crash drops" true
        (even.drops > 0 && odd.drops > 0))

(* ---------------- Bmmb: pending walk and completion cursor ---------------- *)

module Bmmb = Sinr_proto.Bmmb
module Mac_driver = Sinr_proto.Mac_driver

(* BMMB as it stood before the pending set: every step scans every node.
   The reference for the walk. *)
module Scan_bmmb = struct
  type t = {
    mac : Mac_driver.t;
    bcastq : int Queue.t array;
    rcvd : (int, unit) Hashtbl.t array;
    mutable deliveries : Bmmb.delivery list; (* newest first *)
  }

  let handle t ~node ~msg =
    if not (Hashtbl.mem t.rcvd.(node) msg) then begin
      Hashtbl.add t.rcvd.(node) msg ();
      t.deliveries <-
        { Bmmb.node; msg; at = t.mac.Mac_driver.now () } :: t.deliveries;
      Queue.add msg t.bcastq.(node)
    end

  let create mac =
    let n = mac.Mac_driver.n in
    let t =
      { mac;
        bcastq = Array.init n (fun _ -> Queue.create ());
        rcvd = Array.init n (fun _ -> Hashtbl.create 8);
        deliveries = [] }
    in
    mac.Mac_driver.set_handlers
      { Absmac_intf.on_rcv =
          (fun ~node ~payload -> handle t ~node ~msg:payload.Events.data);
        on_ack = (fun ~node:_ ~payload:_ -> ()) };
    t

  let step t =
    for node = 0 to t.mac.Mac_driver.n - 1 do
      if t.mac.Mac_driver.alive ~node
         && (not (t.mac.Mac_driver.busy ~node))
         && not (Queue.is_empty t.bcastq.(node))
      then begin
        let msg = Queue.pop t.bcastq.(node) in
        ignore (t.mac.Mac_driver.bcast ~node ~data:msg)
      end
    done;
    t.mac.Mac_driver.step ()
end

let bmmb_n = 12

(* An ideal MAC on a random graph whose nodes crash and revive: [alive]
   reads [crashed], and a crashed node hears nothing. *)
let crashy_driver ~seed ~crashed =
  let grng = Rng.create seed in
  let g =
    Sinr_graph.Graph.of_predicate ~n:bmmb_n (fun u v ->
        v = u + 1 || Rng.bernoulli grng 0.2)
  in
  let bounds =
    { Absmac_intf.f_ack = 8; f_prog = 3; f_approg = 3; eps_ack = 0.;
      eps_prog = 0.; eps_approg = 0. }
  in
  let d =
    Mac_driver.of_ideal
      (Ideal_mac.create g ~bounds ~rng:(Rng.create (seed + 1)))
  in
  { d with
    Mac_driver.alive = (fun ~node -> not crashed.(node));
    set_handlers =
      (fun h ->
        d.Mac_driver.set_handlers
          { h with
            Absmac_intf.on_rcv =
              (fun ~node ~payload ->
                if not crashed.(node) then h.Absmac_intf.on_rcv ~node ~payload)
          }) }

(* Crash or revive a random node, now and then. *)
let toggle ops crashed =
  if Rng.bernoulli ops 0.15 then begin
    let v = Rng.int ops bmmb_n in
    crashed.(v) <- not crashed.(v)
  end

(* Both protocols see the same inputs: arrivals and crash toggles between
   steps, and arrivals injected from inside [bcast], i.e. mid-walk. *)
let bmmb_deliveries ~seed ~scan =
  let crashed = Array.make bmmb_n false in
  let ops = Rng.create (seed + 2) in
  let fresh = ref 0 in
  let arrive = ref (fun ~node:_ ~msg:_ -> ()) in
  let new_arrival () =
    incr fresh;
    !arrive ~node:(Rng.int ops bmmb_n) ~msg:!fresh
  in
  let d = crashy_driver ~seed ~crashed in
  let d =
    { d with
      Mac_driver.bcast =
        (fun ~node ~data ->
          let p = d.Mac_driver.bcast ~node ~data in
          if Rng.bernoulli ops 0.2 then new_arrival ();
          p) }
  in
  let step, deliveries =
    if scan then begin
      let r = Scan_bmmb.create d in
      (arrive := fun ~node ~msg -> Scan_bmmb.handle r ~node ~msg);
      ((fun () -> Scan_bmmb.step r), fun () -> List.rev r.Scan_bmmb.deliveries)
    end
    else begin
      let b = Bmmb.create d in
      (arrive := fun ~node ~msg -> Bmmb.arrive b ~node ~msg);
      ((fun () -> Bmmb.step b), fun () -> Bmmb.deliveries b)
    end
  in
  for _ = 1 to 150 do
    if Rng.bernoulli ops 0.1 then new_arrival ();
    toggle ops crashed;
    step ()
  done;
  deliveries ()

let prop_bmmb_pending =
  QCheck.Test.make ~name:"bmmb: pending walk = node scan" ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let got = bmmb_deliveries ~seed ~scan:false in
      got <> [] && got = bmmb_deliveries ~seed ~scan:true)

(* [run_until_complete] against the full completion check, under crash
   toggles applied inside every step.  A revived node that never got the
   messages must keep the run going. *)
let completion_run ~seed ~full =
  let ops = Rng.create (seed + 3) in
  (* A third of the nodes start down and come back within 20 steps,
     often after the flood has passed them by. *)
  let crashed = Array.init bmmb_n (fun _ -> Rng.bernoulli ops 0.3) in
  let back = Array.init bmmb_n (fun _ -> 1 + Rng.int ops 20) in
  let d = crashy_driver ~seed ~crashed in
  let steps = ref 0 in
  let d =
    { d with
      Mac_driver.step =
        (fun () ->
          incr steps;
          Array.iteri (fun v k -> if k = !steps then crashed.(v) <- false) back;
          toggle ops crashed;
          d.Mac_driver.step ()) }
  in
  let b = Bmmb.create d in
  let msgs = List.init (1 + Rng.int ops 2) (fun k -> 100 + k) in
  List.iter (fun msg -> Bmmb.arrive b ~node:(Rng.int ops bmmb_n) ~msg) msgs;
  let order = Array.init bmmb_n Fun.id in
  Rng.shuffle ops order;
  let nodes = Array.to_list order in
  let max_steps = 10 + Rng.int ops 120 in
  let result =
    if full then begin
      let complete () =
        List.for_all
          (fun node ->
            crashed.(node)
            || List.for_all (fun msg -> Bmmb.delivered b ~node ~msg) msgs)
          nodes
      in
      let steps = ref 0 in
      while (not (complete ())) && !steps < max_steps do
        Bmmb.step b;
        incr steps
      done;
      if complete () then Some (d.Mac_driver.now ()) else None
    end
    else Bmmb.run_until_complete b ~nodes ~msgs ~max_steps
  in
  (result, Bmmb.deliveries b)

let prop_bmmb_completion =
  QCheck.Test.make ~name:"bmmb: completion cursor = full check" ~count:100
    QCheck.(int_range 1 100_000)
    (fun seed ->
      completion_run ~seed ~full:false = completion_run ~seed ~full:true)

(* ---------------- sparse: exact per-listener silence skip ---------------- *)

let with_sparse f =
  let pt = Phys_tuning.sparse_threshold () in
  Phys_tuning.set_sparse_threshold 1;
  Fun.protect ~finally:(fun () -> Phys_tuning.set_sparse_threshold pt) f

(* The decision the kernel must reach for listener [u]: the exact near
   sum (every sender here is near) accumulated as the kernel does, the
   strongest sender, the SINR test.  No skip. *)
let full_sum_decision sinr sp ~senders u =
  let soa = Sinr.soa sinr in
  let ids = Array.of_list senders in
  let nsend = Array.length ids in
  let total = Sparse.interference sp ~ids ~nsend ~receiver:u in
  let best = ref (-1) and best_pw = ref 0. in
  Array.iter
    (fun v ->
      let dx = Soa.x soa v -. Soa.x soa u and dy = Soa.y soa v -. Soa.y soa u in
      let d2 = (dx *. dx) +. (dy *. dy) in
      let pw = cfg.Config.power /. (d2 *. sqrt d2) in
      if pw > !best_pw then begin
        best_pw := pw;
        best := v
      end)
    ids;
  if
    (not (List.mem u senders))
    && !best >= 0
    && !best_pw >= cfg.Config.beta *. (cfg.Config.noise +. total -. !best_pw)
  then Some !best
  else None

(* Listeners around a sender at the origin at each boundary distance:
   the first four on the axes (where d2 = d * d exactly), all of them
   again on two other arcs, each on its own bearing so that the ring
   keeps the near-field normalization (pairwise distance >= 1). *)
let boundary_points r =
  let near_r = [ r; Float.pred r; Float.succ r; r -. 1e-9; r +. 1e-9 ] in
  let axes =
    List.map2
      (fun d (cx, cy) -> Point.make (cx *. d) (cy *. d))
      (List.filteri (fun i _ -> i < 4) near_r)
      [ (1., 0.); (0., 1.); (-1., 0.); (0., -1.) ]
  in
  let arc start =
    List.mapi
      (fun i d ->
        let th = start +. (0.25 *. float_of_int i) in
        Point.make (d *. cos th) (d *. sin th))
      near_r
  in
  axes @ arc 0.3 @ arc 3.4
  @ [ Point.make (0.5 *. r *. cos 2.2) (0.5 *. r *. sin 2.2);
      Point.make (1.5 *. r *. cos 2.2) (1.5 *. r *. sin 2.2) ]

let check_sparse_case ~label pts ~senders =
  let sinr = Sinr.create cfg pts in
  let sp =
    match Sinr.sparse sinr with
    | Some sp -> sp
    | None -> Alcotest.fail "sparse kernel not installed"
  in
  let got = Sinr.resolve sinr ~senders in
  Array.iteri
    (fun u o ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s: listener %d" label u)
        (full_sum_decision sinr sp ~senders u) o)
    got;
  got

let test_sparse_silence_boundary () =
  with_sparse @@ fun () ->
  Metrics.reset_for_tests ();
  Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
  Metrics.set_enabled true;
  let r = Config.range cfg in
  let lone = Array.of_list (Point.make 0. 0. :: boundary_points r) in
  let got = check_sparse_case ~label:"lone sender" lone ~senders:[ 0 ] in
  (* Both sides of the boundary are exercised. *)
  Alcotest.(check bool) "someone decodes" true
    (Array.exists Option.is_some got);
  Alcotest.(check bool) "someone does not" true
    (Array.exists Option.is_none (Array.sub got 1 (Array.length got - 1)));
  (* Under interference: a second sender 2.2 R away on the far side and
     a third close enough to spoil part of the ring. *)
  let crowd =
    Array.append lone
      [| Point.make (-2.2 *. r) 0.5; Point.make (0.3 *. r) (1.7 *. r) |]
  in
  let n = Array.length crowd in
  ignore
    (check_sparse_case ~label:"interference" crowd
       ~senders:[ 0; n - 2; n - 1 ]);
  let count name = Option.value ~default:0 (Metrics.counter_peek name) in
  Alcotest.(check bool) "the skip engaged" true
    (count "phys.sparse.silent_listeners" > 0);
  (* Scored links, not senders x nodes. *)
  let links = count "phys.resolve.links" in
  let near = count "phys.sparse.near_links" in
  let far = count "phys.sparse.far_cell_pairs" in
  Alcotest.(check int) "links = near links + far cell pairs" (near + far) links

let prop_sparse_skip_exact =
  QCheck.Test.make ~name:"sparse: silence skip = full near sum" ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed ->
      with_sparse @@ fun () ->
      let rng = Rng.create seed in
      let n = 10 + Rng.int rng 50 in
      let side = 3. *. Config.range cfg in
      let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
      let sinr = Sinr.create cfg pts in
      let sp = Option.get (Sinr.sparse sinr) in
      let senders =
        List.filter (fun _ -> Rng.bernoulli rng 0.15) (List.init n Fun.id)
      in
      let got = Sinr.resolve sinr ~senders in
      Array.for_all Fun.id
        (Array.mapi (fun u o -> full_sum_decision sinr sp ~senders u = o) got))

(* The simulator entry point: ascending receivers, matching the option
   wrapper, and empty buffers afterwards — on the sparse path too. *)
let test_resolve_into_buffers () =
  let check_on sinr senders =
    let n = Sinr.n sinr in
    let d = Sinr.create_decoded n in
    let arr = Array.of_list senders in
    Sinr.resolve_into sinr ~senders:arr ~nsenders:(Array.length arr) d;
    let listed = Array.to_list (Array.sub d.Sinr.receivers 0 d.Sinr.count) in
    Alcotest.(check (list int)) "receivers ascending" (List.sort compare listed)
      listed;
    let want = Sinr.resolve_reference sinr ~senders in
    Array.iteri
      (fun u o ->
        Alcotest.(check (option int)) "decoded column" o
          (if d.Sinr.sender.(u) < 0 then None else Some d.Sinr.sender.(u)))
      want;
    Sinr.clear_decoded d;
    Alcotest.(check bool) "cleared" true
      (d.Sinr.count = 0 && Array.for_all (fun s -> s = -1) d.Sinr.sender)
  in
  let rng = Rng.create 17 in
  let pts =
    Placement.uniform rng ~n:80 ~box:(Box.square ~side:40.) ~min_dist:1.
  in
  let senders = [ 3; 17; 40; 41; 66 ] in
  check_on (Sinr.create cfg pts) senders;
  with_sparse (fun () -> check_on (Sinr.create cfg pts) [ 3; 66 ]);
  (* The pooled exact kernel: several listener chunks, each recording
     into its own slice of the receiver list before they are packed. *)
  let prev_thresh = Phys_tuning.par_threshold () in
  let prev_jobs = Sinr_par.Pool.default_jobs () in
  Phys_tuning.set_par_threshold 4;
  Sinr_par.Pool.set_default_jobs 3;
  Fun.protect
    ~finally:(fun () ->
      Phys_tuning.set_par_threshold prev_thresh;
      Sinr_par.Pool.set_default_jobs prev_jobs)
  @@ fun () ->
  let n = 300 in
  let side = 4.4 *. sqrt (float_of_int n) in
  let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  check_on (Sinr.create cfg pts)
    (List.filter (fun _ -> Rng.bernoulli rng 0.05) (List.init n Fun.id))

(* The telemetry collision/silence split walks the senders'
   neighbourhoods: [Sinr.iter_in_range] must visit exactly the nodes the
   brute-force [in_range] scan accepts, each once — on the sparse grid's
   window, on the exact kernel's cached lists (first call and reuse), and
   at the range boundary. *)
let test_iter_in_range () =
  let check_all label sinr =
    let n = Sinr.n sinr in
    for pass = 1 to 2 do
      for v = 0 to n - 1 do
        let got = ref [] in
        Sinr.iter_in_range sinr v (fun u -> got := u :: !got);
        Alcotest.(check (list int))
          (Printf.sprintf "%s pass %d: node %d" label pass v)
          (List.filter (Sinr.in_range sinr v) (List.init n Fun.id))
          (List.sort compare !got)
      done
    done
  in
  let rng = Rng.create 23 in
  let n = 400 in
  let side = 4.4 *. sqrt (float_of_int n) in
  let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  let boundary =
    Array.of_list (Point.make 0. 0. :: boundary_points (Config.range cfg))
  in
  check_all "exact" (Sinr.create cfg pts);
  check_all "exact boundary" (Sinr.create cfg boundary);
  with_sparse (fun () ->
      let sinr = Sinr.create cfg pts in
      Alcotest.(check bool) "sparse installed" true (Sinr.sparse sinr <> None);
      check_all "sparse" sinr;
      check_all "sparse boundary" (Sinr.create cfg boundary))

(* ---------------- Engine telemetry: counters = reference scan ---------------- *)

(* The engine derives engine.listens / collision_loss / silence from a
   live-node count and the senders' neighbourhoods; here they are checked
   slot by slot against the O(n) scans they replaced.  Scenario: wakes,
   crashes and revivals between slots, asleep receivers woken by delivery,
   an on_deliver that crashes nodes (later receivers of the slot
   included), and jammed slots; on the exact kernel and on the sparse one.
   The reference listener count is taken when the engine asks for the
   slot's perturbation (after every decide, before resolution); the
   reference decodes come from resolving the same senders, in the
   engine's order, with the same perturbation. *)
let engine_counters_agree ~seed ~sparse =
  let ops = Rng.create seed in
  let n = 6 + Rng.int ops 50 in
  let side = (0.8 +. Rng.float ops 2.5) *. Config.range cfg in
  let pts = Placement.uniform ops ~n ~box:(Box.square ~side) ~min_dist:1. in
  let sinr =
    if sparse then with_sparse (fun () -> Sinr.create cfg pts)
    else Sinr.create cfg pts
  in
  assert (Option.is_some (Sinr.sparse sinr) = sparse);
  let eng = Engine.create sinr in
  let jam slot =
    if slot mod 3 = 0 then
      Some
        { Sinr.noise_factor = (fun u -> if u mod 2 = 0 then 4. else 1.);
          gain = (fun ~sender:_ ~receiver:_ -> 1.) }
    else None
  in
  let senders = ref [] and ref_listens = ref (-1) in
  let listeners () =
    let c = ref 0 in
    for v = 0 to n - 1 do
      if Engine.is_awake eng v && (not (Engine.is_crashed eng v))
         && not (List.mem v !senders)
      then incr c
    done;
    !c
  in
  Engine.set_perturb eng (fun ~slot ->
      ref_listens := listeners ();
      jam slot);
  let peek k = Option.value ~default:0 (Metrics.counter_peek k) in
  let counters () =
    (peek "engine.listens", peek "engine.collision_loss", peek "engine.silence")
  in
  for v = 0 to n - 1 do
    if Rng.bernoulli ops 0.5 then Engine.wake eng v
  done;
  for slot = 0 to 60 do
    for _ = 1 to 3 do
      let v = Rng.int ops n in
      match Rng.int ops 5 with
      | 0 -> Engine.wake eng v
      | 1 -> Engine.crash eng v
      | 2 -> Engine.revive eng v
      | _ -> ()
    done;
    senders := [];
    ref_listens := -1;
    let decide v =
      if Rng.bernoulli ops 0.25 then begin
        senders := v :: !senders;
        Engine.Transmit v
      end
      else Engine.Listen
    in
    let on_deliver (d : int Engine.delivery) =
      if Rng.bernoulli ops 0.15 then Engine.crash eng (Rng.int ops n);
      if Rng.bernoulli ops 0.1 then Engine.crash eng d.Engine.receiver
    in
    let l0, c0, s0 = counters () in
    ignore (Engine.step ~on_deliver eng ~decide : int Engine.delivery list);
    let l1, c1, s1 = counters () in
    let label what = Printf.sprintf "seed %d slot %d %s" seed slot what in
    (* No sender: no perturbation asked, nothing delivered since decide. *)
    if !senders = [] then ref_listens := listeners ();
    Alcotest.(check int) (label "listens") !ref_listens (l1 - l0);
    let want_c, want_s =
      if !senders = [] then (0, 0)
      else begin
        (* [senders] is descending, like the engine's resolution order. *)
        let got = Sinr.resolve ?perturb:(jam slot) sinr ~senders:!senders in
        let c = ref 0 and s = ref 0 in
        for u = 0 to n - 1 do
          if Engine.is_awake eng u && (not (Engine.is_crashed eng u))
             && (not (List.mem u !senders))
             && got.(u) = None
          then
            if List.exists (fun v -> Sinr.in_range sinr v u) !senders then incr c
            else incr s
        done;
        (!c, !s)
      end
    in
    Alcotest.(check int) (label "collision_loss") want_c (c1 - c0);
    Alcotest.(check int) (label "silence") want_s (s1 - s0)
  done

let prop_engine_counters =
  QCheck.Test.make ~name:"engine: telemetry counters = reference scan"
    ~count:40
    QCheck.(pair (int_range 1 100_000) bool)
    (fun (seed, sparse) ->
      Metrics.reset_for_tests ();
      Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
      Metrics.set_enabled true;
      engine_counters_agree ~seed ~sparse;
      true)

(* Fixed qcheck seed: the suite is deterministic like every other one. *)
let fixed_rand () = Random.State.make [| 1505 |]

let suite =
  [ QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_node_set_model;
    Alcotest.test_case "node set walk edge cases" `Quick
      test_node_set_walk_edges;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_node_set_view;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_engine_contenders;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_hm_select;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_engine_counters;
    Alcotest.test_case "combined mac: pinned edge cases" `Quick
      test_mac_pinned;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_ack_pass;
    Alcotest.test_case "combined mac: ack pass coverage" `Quick
      test_ack_pass_coverage;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_bmmb_pending;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_bmmb_completion;
    Alcotest.test_case "sparse: silence skip at the boundary" `Quick
      test_sparse_silence_boundary;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_sparse_skip_exact;
    Alcotest.test_case "resolve_into buffers" `Quick test_resolve_into_buffers;
    Alcotest.test_case "iter_in_range = in_range scan" `Quick
      test_iter_in_range ]
