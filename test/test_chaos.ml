(* Tests for the adversarial channel & fault-injection subsystem:
   lib/chaos adversaries, the engine's crash/recover trace events, the
   exact Fault sampler, the crashed-broadcaster ack semantics, the
   Mac_driver retry wrapper, and the jobs-invariance of the E-chaos
   degradation sweep. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_mac
open Sinr_proto
open Sinr_chaos

let cfg = Config.default

let line_net n spacing = Sinr.create cfg (Placement.line ~n ~spacing)

(* ---------------- Fault.random_crashes (exact sampler) ---------------- *)

let test_random_crashes_exact () =
  let plan =
    Fault.random_crashes (Rng.create 7) ~n:10 ~count:7 ~horizon:100
      ~protect:[ 0; 1 ]
  in
  Alcotest.(check int) "exactly count victims" 7 (List.length plan);
  let victims = List.map snd plan in
  Alcotest.(check int)
    "victims distinct" 7
    (List.length (List.sort_uniq compare victims));
  List.iter
    (fun (slot, v) ->
      Alcotest.(check bool) "victim unprotected" false (v = 0 || v = 1);
      Alcotest.(check bool) "slot in horizon" true (slot >= 0 && slot < 100))
    plan;
  Alcotest.(check (list (pair int int)))
    "sorted by slot" (List.sort compare plan) plan;
  (* Exhausting the eligible set exactly is fine... *)
  let full =
    Fault.random_crashes (Rng.create 8) ~n:10 ~count:8 ~horizon:5
      ~protect:[ 0; 1 ]
  in
  Alcotest.(check (list int))
    "full prefix takes every unprotected node"
    [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare (List.map snd full))

let test_random_crashes_invalid () =
  Alcotest.check_raises "count beyond eligible"
    (Invalid_argument
       "Fault.random_crashes: count 9 exceeds the 8 unprotected nodes")
    (fun () ->
      ignore
        (Fault.random_crashes (Rng.create 1) ~n:10 ~count:9 ~horizon:10
           ~protect:[ 0; 1 ]))

let test_fault_apply () =
  let eng = Engine.create (line_net 4 5.) in
  let plan = [ (0, 1); (5, 2) ] in
  let crashed, rest = Fault.apply plan eng in
  Alcotest.(check (list int)) "due crash applied" [ 1 ] crashed;
  Alcotest.(check (list (pair int int))) "future crash kept" [ (5, 2) ] rest;
  Alcotest.(check bool) "node 1 down" true (Engine.is_crashed eng 1);
  for _ = 1 to 5 do
    ignore (Engine.step_select eng ~select:(fun _ -> 0) : int)
  done;
  let crashed, rest = Fault.apply rest eng in
  Alcotest.(check (list int)) "second crash at its slot" [ 2 ] crashed;
  Alcotest.(check (list (pair int int))) "plan drained" [] rest

(* ---------------- engine crash/recover tracing ---------------- *)

let test_crash_trace_idempotent () =
  let trace = Trace.create () in
  let eng = Engine.create ~trace (line_net 3 5.) in
  let crashes () =
    Trace.count trace (fun e ->
        match e.Trace.event with Trace.Crash _ -> true | _ -> false)
  in
  (* Crash before wake: legal, one event. *)
  Engine.crash eng 0;
  Alcotest.(check int) "crash recorded" 1 (crashes ());
  (* Double crash: idempotent, still one event. *)
  Engine.crash eng 0;
  Alcotest.(check int) "double-crash is a no-op" 1 (crashes ());
  (* A crashed node cannot be woken. *)
  Engine.wake eng 0;
  Alcotest.(check bool) "crashed node stays down" false (Engine.is_awake eng 0);
  (* Recover: node rejoins asleep, exactly one Recover event. *)
  Engine.revive eng 0;
  Engine.revive eng 0;
  Alcotest.(check int) "one recover event" 1
    (Trace.count trace (fun e ->
         match e.Trace.event with Trace.Recover _ -> true | _ -> false));
  Alcotest.(check bool) "revived" false (Engine.is_crashed eng 0);
  Alcotest.(check bool) "revived node is asleep" false (Engine.is_awake eng 0);
  (* A fresh down-phase records a fresh Crash event. *)
  Engine.crash eng 0;
  Alcotest.(check int) "second down-phase recorded" 2 (crashes ())

(* ---------------- crashed broadcaster never acks ---------------- *)

let test_crash_mid_broadcast_no_ack () =
  let trace = Trace.create () in
  let sinr = line_net 4 3. in
  let mac = Combined_mac.create ~trace sinr ~rng:(Rng.create 3) in
  let acks = ref [] in
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack = (fun ~node ~payload:_ -> acks := node :: !acks) };
  ignore (Combined_mac.bcast mac ~node:0 ~data:7);
  for _ = 1 to 10 do
    Combined_mac.step mac
  done;
  Engine.crash (Combined_mac.engine mac) 0;
  let f_ack = (Combined_mac.bounds mac).Absmac_intf.f_ack in
  for _ = 1 to f_ack + 2 do
    Combined_mac.step mac
  done;
  Alcotest.(check (list int)) "no ack from the crashed node" [] !acks;
  Alcotest.(check bool) "broadcast dropped" false (Combined_mac.busy mac ~node:0);
  let report =
    Spec_check.check trace
      ~graph:(Induced.strong cfg (Sinr.points sinr))
      ~f_ack ~f_prog:f_ack
      ~horizon:(Engine.slot (Combined_mac.engine mac))
  in
  (* The spec scores the dropped broadcast as aborted, not as a late ack. *)
  Alcotest.(check int) "aborted" 1 report.Spec_check.aborted;
  Alcotest.(check int) "no late acks" 0 report.Spec_check.late_acks;
  Alcotest.(check int) "nothing acked" 0 report.Spec_check.acked

(* ---------------- chaos adversaries ---------------- *)

let test_jam_blocks_reception () =
  let sinr = line_net 2 5. in
  Alcotest.(check (option int))
    "clean channel decodes" (Some 0)
    (Sinr.reception sinr ~senders:[ 0 ] ~receiver:1);
  let adv =
    Chaos.jam ~rng:(Rng.create 1) ~duty:1.0 ~mult:1e12 (Sinr.points sinr)
  in
  match adv.Chaos.perturb ~slot:0 with
  | None -> Alcotest.fail "duty 1.0 must jam every slot"
  | Some p ->
    Alcotest.(check (option int))
      "jammed channel decodes nothing" None
      (Sinr.reception ~perturb:p sinr ~senders:[ 0 ] ~receiver:1)

let test_jam_disk_is_local () =
  (* Jam a disk around node 1 only: node 2 still decodes. *)
  let sinr = line_net 3 4. in
  let pts = Sinr.points sinr in
  let adv =
    Chaos.jam ~disk:(pts.(1), 1.0) ~rng:(Rng.create 1) ~duty:1.0 ~mult:1e12
      pts
  in
  match adv.Chaos.perturb ~slot:0 with
  | None -> Alcotest.fail "duty 1.0 must jam every slot"
  | Some p ->
    Alcotest.(check (option int))
      "inside the disk: blocked" None
      (Sinr.reception ~perturb:p sinr ~senders:[ 0 ] ~receiver:1);
    Alcotest.(check (option int))
      "outside the disk: decodes" (Some 0)
      (Sinr.reception ~perturb:p sinr ~senders:[ 0 ] ~receiver:2)

let test_jam_duty_cycle () =
  let pts = (fun s -> Sinr.points s) (line_net 2 5.) in
  let adv = Chaos.jam ~period:10 ~rng:(Rng.create 5) ~duty:0.3 ~mult:4. pts in
  (* Every 10-slot window carries exactly a 3-slot burst. *)
  for window = 0 to 9 do
    let jammed = ref 0 in
    for off = 0 to 9 do
      if Option.is_some (adv.Chaos.perturb ~slot:((window * 10) + off)) then
        incr jammed
    done;
    Alcotest.(check int) "burst length per window" 3 !jammed
  done

let test_fading_pure_hash () =
  let gain_at adv ~slot ~sender ~receiver =
    match adv.Chaos.perturb ~slot with
    | None -> Alcotest.fail "fading with sigma>0 must perturb"
    | Some p -> p.Sinr.gain ~sender ~receiver
  in
  let a = Chaos.fading ~rng:(Rng.create 11) ~sigma:0.8 ~n:5 in
  let b = Chaos.fading ~rng:(Rng.create 11) ~sigma:0.8 ~n:5 in
  let g = gain_at a ~slot:3 ~sender:1 ~receiver:2 in
  (* Same seed: identical gains, in any evaluation order (pure hash). *)
  ignore (gain_at b ~slot:9 ~sender:4 ~receiver:0);
  Alcotest.(check (float 0.)) "bit-identical across instances" g
    (gain_at b ~slot:3 ~sender:1 ~receiver:2);
  Alcotest.(check (float 0.)) "re-evaluation is stable" g
    (gain_at a ~slot:3 ~sender:1 ~receiver:2);
  Alcotest.(check bool) "slots decorrelated" true
    (g <> gain_at a ~slot:4 ~sender:1 ~receiver:2);
  Alcotest.(check bool) "gain positive" true (g > 0.)

let test_compose_multiplies () =
  let pts = (fun s -> Sinr.points s) (line_net 2 5.) in
  let j1 = Chaos.jam ~rng:(Rng.create 1) ~duty:1.0 ~mult:2. pts in
  let j2 = Chaos.jam ~rng:(Rng.create 2) ~duty:1.0 ~mult:3. pts in
  match (Chaos.all [ j1; j2 ]).Chaos.perturb ~slot:0 with
  | None -> Alcotest.fail "composition of active jams must be active"
  | Some p ->
    Alcotest.(check (float 1e-9)) "noise factors multiply" 6.
      (p.Sinr.noise_factor 0)

let test_crash_recover_schedule () =
  let eng = Engine.create (line_net 10 5.) in
  let adv =
    Chaos.crash_recover ~rng:(Rng.create 4) ~n:10 ~frac:0.5 ~horizon:10
      ~downtime:5 ~protect:[ 0 ] ()
  in
  let sim = Chaos.sim_of_engine eng in
  let down_history = ref 0 in
  for _ = 0 to 30 do
    Chaos.tick adv sim;
    for v = 0 to 9 do
      if Engine.is_crashed eng v then down_history := max !down_history 1
    done;
    ignore (Engine.step_select eng ~select:(fun _ -> 0) : int)
  done;
  Alcotest.(check int) "somebody went down" 1 !down_history;
  Alcotest.(check bool) "protected node never crashed" false
    (Engine.is_crashed eng 0);
  (* horizon + downtime elapsed: everyone is back up. *)
  for v = 0 to 9 do
    Alcotest.(check bool) "recovered" false (Engine.is_crashed eng v)
  done

let test_crash_recover_invalid () =
  Alcotest.(check bool) "over-subscribed frac rejected" true
    (try
       ignore
         (Chaos.crash_recover ~rng:(Rng.create 1) ~n:10 ~frac:0.9 ~horizon:10
            ~downtime:0
            ~protect:[ 0; 1 ] ());
       false
     with Invalid_argument _ -> true)

let test_abort_pressure_hits_busy_nodes () =
  let eng = Engine.create (line_net 4 5.) in
  Engine.crash eng 3;
  let aborted = ref [] in
  let sim =
    Chaos.sim_of_engine
      ~busy:(fun v -> v <> 2)
      ~abort:(fun v -> aborted := v :: !aborted)
      eng
  in
  let adv = Chaos.abort_pressure ~rng:(Rng.create 2) ~rate:1.0 in
  Chaos.tick adv sim;
  (* rate 1: every busy, non-crashed node is hit; idle (2) and crashed (3)
     are spared. *)
  Alcotest.(check (list int)) "busy live nodes aborted" [ 0; 1 ]
    (List.sort compare !aborted)

(* ---------------- Mac_driver retry wrapper ---------------- *)

let test_retry_recovers_forced_abort () =
  let sinr = line_net 3 3. in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 5) in
  let retry = Mac_driver.with_retry (Mac_driver.of_combined mac) in
  let driver = retry.Mac_driver.driver in
  let acked = ref false in
  driver.Mac_driver.set_handlers
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack = (fun ~node:_ ~payload:_ -> acked := true) };
  ignore (driver.Mac_driver.bcast ~node:0 ~data:1);
  for _ = 1 to 5 do
    driver.Mac_driver.step ()
  done;
  retry.Mac_driver.force_abort ~node:0;
  Alcotest.(check int) "still pending after the forced abort" 1
    (retry.Mac_driver.outstanding ());
  let f_ack = driver.Mac_driver.bounds.Absmac_intf.f_ack in
  let budget = ref (4 * f_ack) in
  while retry.Mac_driver.outstanding () > 0 && !budget > 0 do
    driver.Mac_driver.step ();
    decr budget
  done;
  Alcotest.(check bool) "acked on retry" true !acked;
  let s = retry.Mac_driver.stats () in
  Alcotest.(check bool) "reissued" true (s.Mac_driver.reissues >= 1);
  Alcotest.(check int) "recovered" 1 s.Mac_driver.recovered;
  Alcotest.(check int) "nothing dropped" 0 s.Mac_driver.gave_up

let test_retry_intentional_abort_cancels () =
  let sinr = line_net 3 3. in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 6) in
  let retry = Mac_driver.with_retry (Mac_driver.of_combined mac) in
  let driver = retry.Mac_driver.driver in
  ignore (driver.Mac_driver.bcast ~node:0 ~data:1);
  for _ = 1 to 3 do
    driver.Mac_driver.step ()
  done;
  driver.Mac_driver.abort ~node:0;
  Alcotest.(check int) "payload forgotten" 0 (retry.Mac_driver.outstanding ());
  let f_ack = driver.Mac_driver.bounds.Absmac_intf.f_ack in
  for _ = 1 to (2 * f_ack) + 2 do
    driver.Mac_driver.step ()
  done;
  let s = retry.Mac_driver.stats () in
  Alcotest.(check int) "no reissues" 0 s.Mac_driver.reissues;
  Alcotest.(check bool) "no broadcast in flight" false
    (driver.Mac_driver.busy ~node:0)

let test_retry_drops_crashed_sender () =
  let sinr = line_net 3 3. in
  let mac = Combined_mac.create sinr ~rng:(Rng.create 7) in
  let retry = Mac_driver.with_retry (Mac_driver.of_combined mac) in
  let driver = retry.Mac_driver.driver in
  ignore (driver.Mac_driver.bcast ~node:0 ~data:1);
  for _ = 1 to 3 do
    driver.Mac_driver.step ()
  done;
  Engine.crash (Combined_mac.engine mac) 0;
  for _ = 1 to 3 do
    driver.Mac_driver.step ()
  done;
  Alcotest.(check int) "crashed payload dropped" 0
    (retry.Mac_driver.outstanding ());
  Alcotest.(check int) "counted as gave_up" 1
    (retry.Mac_driver.stats ()).Mac_driver.gave_up

(* ---------------- E-chaos determinism ---------------- *)

let test_exp_chaos_jobs_invariant () =
  let axes =
    [ ("jam", [ 0.0; 0.5 ],
       fun l -> { Sinr_expt.Exp_chaos.clean with jam_duty = l }) ]
  in
  let run jobs =
    Sinr_expt.Exp_chaos.run ~jobs ~seeds:[ 1; 2 ] ~n:16 ~degree:4 ~axes ()
  in
  let r1 = run 1 and r2 = run 2 in
  (* Structural compare (not =): rows carry nan-able floats, and
     [compare nan nan = 0]. *)
  Alcotest.(check bool) "rows bit-identical across jobs" true
    (compare r1 r2 = 0);
  Alcotest.(check int) "one row per (axis, level)" 2 (List.length r1)

(* ---------------- process-level failpoints ---------------- *)

let test_failpoint_arming () =
  let module F = Chaos.Failpoint in
  F.clear ();
  Fun.protect ~finally:F.clear @@ fun () ->
  (* disarmed: a hit is a no-op *)
  F.hit "nowhere";
  (* Always: every hit raises until disarmed *)
  F.arm "poison" F.Always;
  Alcotest.check_raises "always raises" (F.Injected "poison") (fun () ->
      F.hit "poison");
  Alcotest.check_raises "still armed" (F.Injected "poison") (fun () ->
      F.hit "poison");
  F.disarm "poison";
  F.hit "poison";
  (* Times n: n hits raise, then auto-disarm *)
  F.arm "transient" (F.Times 2);
  Alcotest.check_raises "first hit" (F.Injected "transient") (fun () ->
      F.hit "transient");
  Alcotest.check_raises "second hit" (F.Injected "transient") (fun () ->
      F.hit "transient");
  F.hit "transient";
  Alcotest.(check bool) "auto-disarmed after n" true
    (F.armed "transient" = None);
  (* Delay: sleeps, never raises *)
  F.arm "stall" (F.Delay 0.01);
  let t0 = Unix.gettimeofday () in
  F.hit "stall";
  Alcotest.(check bool) "delay stalls the hit" true
    (Unix.gettimeofday () -. t0 >= 0.005)

let test_failpoint_spec () =
  let module F = Chaos.Failpoint in
  F.clear ();
  Fun.protect ~finally:F.clear @@ fun () ->
  let parsed = F.parse_spec "a=always,b=3,c=sleep:0.5,junk,d=wat" in
  Alcotest.(check bool) "always parsed" true
    (List.assoc_opt "a" parsed = Some F.Always);
  Alcotest.(check bool) "times parsed" true
    (List.assoc_opt "b" parsed = Some (F.Times 3));
  Alcotest.(check bool) "sleep parsed" true
    (List.assoc_opt "c" parsed = Some (F.Delay 0.5));
  Alcotest.(check bool) "malformed entries dropped" true
    (List.assoc_opt "d" parsed = None && List.length parsed = 3);
  (* from_env arms what the variable holds *)
  Unix.putenv "SINR_FAILPOINTS_TEST" "envpoint=always";
  Alcotest.(check int) "one armed from env" 1
    (F.from_env ~var:"SINR_FAILPOINTS_TEST" ());
  Alcotest.check_raises "env-armed point fires" (F.Injected "envpoint")
    (fun () -> F.hit "envpoint");
  Unix.putenv "SINR_FAILPOINTS_TEST" "";
  Alcotest.(check int) "empty env arms nothing" 0
    (F.from_env ~var:"SINR_FAILPOINTS_TEST" ())

let suite =
  [ Alcotest.test_case "fault: exact shuffle sampler" `Quick
      test_random_crashes_exact;
    Alcotest.test_case "failpoint: arm/times/delay" `Quick
      test_failpoint_arming;
    Alcotest.test_case "failpoint: spec and env parsing" `Quick
      test_failpoint_spec;
    Alcotest.test_case "fault: over-subscribed count rejected" `Quick
      test_random_crashes_invalid;
    Alcotest.test_case "fault: apply drains due crashes" `Quick
      test_fault_apply;
    Alcotest.test_case "engine: crash/recover traced, idempotent" `Quick
      test_crash_trace_idempotent;
    Alcotest.test_case "mac: crashed broadcaster never acks" `Quick
      test_crash_mid_broadcast_no_ack;
    Alcotest.test_case "chaos: jam blocks reception" `Quick
      test_jam_blocks_reception;
    Alcotest.test_case "chaos: disk jam is local" `Quick test_jam_disk_is_local;
    Alcotest.test_case "chaos: jam duty-cycle burst length" `Quick
      test_jam_duty_cycle;
    Alcotest.test_case "chaos: fading is a pure hash" `Quick
      test_fading_pure_hash;
    Alcotest.test_case "chaos: composition multiplies factors" `Quick
      test_compose_multiplies;
    Alcotest.test_case "chaos: crash-recover schedule" `Quick
      test_crash_recover_schedule;
    Alcotest.test_case "chaos: over-subscribed crash frac rejected" `Quick
      test_crash_recover_invalid;
    Alcotest.test_case "chaos: abort pressure hits busy nodes" `Quick
      test_abort_pressure_hits_busy_nodes;
    Alcotest.test_case "retry: recovers a forced abort" `Quick
      test_retry_recovers_forced_abort;
    Alcotest.test_case "retry: intentional abort cancels" `Quick
      test_retry_intentional_abort_cancels;
    Alcotest.test_case "retry: crashed sender dropped" `Quick
      test_retry_drops_crashed_sender;
    Alcotest.test_case "exp_chaos: rows invariant under jobs" `Quick
      test_exp_chaos_jobs_invariant ]
