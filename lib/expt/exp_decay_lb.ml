(* E4 — Theorem 8.1: Decay fails to yield fast approximate progress.

   The two-balls construction: B1 holds two broadcasting nodes, B2 holds
   Delta broadcasting nodes at distance 2R.  Under Decay, whenever B1's
   probabilities rise high enough to transmit, B2's crowd is transmitting
   too and drowns the cross-ball noise floor: progress inside B1 needs
   Omega(Delta * log(1/eps)) slots.  Algorithm 9.1 sparsifies B2 away and
   stays polylogarithmic.

   Measured event: the first slot at which either B1 node decodes the
   other B1 node's payload (they are strong neighbors). *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_stats
open Sinr_mac

(* First slot at which some B1 node receives from the other B1 node, under
   a per-node decide function.  [after_step k] sees each slot's outcome
   (its [k] deliveries) first. *)
let b1_progress engine (tb : Placement.two_balls) ~decide ~after_step
    ~max_slots =
  let a = tb.Placement.ball1.(0) and b = tb.Placement.ball1.(1) in
  let hit = ref None in
  let budget = ref max_slots in
  while !hit = None && !budget > 0 do
    let k = Engine.step_select engine ~select:(Engine.walk engine ~decide) in
    after_step k;
    for i = 0 to k - 1 do
      let r = Engine.receiver engine i in
      let s = Engine.sender_of engine r in
      if (r = a && s = b) || (r = b && s = a) then
        hit := Some (Engine.slot engine)
    done;
    decr budget
  done;
  !hit

let decay_trial ~seed ~delta =
  let rng = Rng.create (0xDECA + (seed * 31)) in
  let d, tb = Workloads.two_balls (Rng.split rng ~key:0) ~delta in
  let sinr = d.Workloads.sinr in
  let n = Sinr.n sinr in
  let lambda = d.Workloads.profile.Induced.lambda in
  let decay =
    Decay.create
      ~n_tilde:(Params.contention_default ~lambda)
      ~n ~rng:(Rng.split rng ~key:1)
  in
  let engine = Engine.create sinr in
  for v = 0 to n - 1 do
    Engine.wake engine v;
    Decay.start decay ~node:v ~slot:0 { Events.origin = v; seq = 0; data = v }
  done;
  b1_progress engine tb
    ~decide:(fun v -> Decay.decide decay ~node:v ~slot:(Engine.slot engine))
    ~after_step:ignore
    ~max_slots:3_000_000

let approg_trial ~seed ~delta =
  let rng = Rng.create (0xA1 + (seed * 37)) in
  let d, tb = Workloads.two_balls (Rng.split rng ~key:0) ~delta in
  let sinr = d.Workloads.sinr in
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let lambda = d.Workloads.profile.Induced.lambda in
  let machine =
    Approx_progress.create Params.default_approg config ~lambda ~n
      ~rng:(Rng.split rng ~key:1)
  in
  let engine = Engine.create sinr in
  for v = 0 to n - 1 do
    Engine.wake engine v;
    Approx_progress.start machine ~node:v
      { Events.origin = v; seq = 0; data = v }
  done;
  let sched = Approx_progress.schedule machine in
  b1_progress engine tb
    ~decide:(fun v -> Approx_progress.decide machine ~node:v)
    ~after_step:(fun k ->
      for i = 0 to k - 1 do
        let u = Engine.receiver engine i in
        let v = Engine.sender_of engine u in
        Approx_progress.on_receive machine ~receiver:u ~sender:v
          (Engine.message engine v)
      done;
      ignore (Approx_progress.end_slot machine))
    ~max_slots:(10 * sched.Params.epoch_slots)

type row = {
  delta : int;
  decay : Summary.t option;
  decay_timeouts : int;
  approg : Summary.t option;
  approg_timeouts : int;
}

let row ~seeds ~delta =
  let decay, decay_timeouts =
    Report.trials ~seeds (fun seed ->
        Option.map float_of_int (decay_trial ~seed ~delta))
  in
  let approg, approg_timeouts =
    Report.trials ~seeds (fun seed ->
        Option.map float_of_int (approg_trial ~seed ~delta))
  in
  { delta; decay; decay_timeouts; approg; approg_timeouts }

let run ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(deltas = [ 32; 64; 128; 256 ]) () =
  Report.section "E4: Decay fails approximate progress (Theorem 8.1)";
  let table =
    Table.create
      ~title:
        "two-balls construction: slots until a B1 node hears its B1 \
         neighbor"
      ~header:
        [ "delta (B2)"; "Decay mean"; "Decay t/o"; "Alg 9.1 mean";
          "Alg 9.1 t/o" ]
      ()
  in
  let rows = List.map (fun delta -> row ~seeds ~delta) deltas in
  List.iter
    (fun r ->
      Table.add_row table
        [ string_of_int r.delta;
          Report.mean_cell r.decay;
          string_of_int r.decay_timeouts;
          Report.mean_cell r.approg;
          string_of_int r.approg_timeouts ])
    rows;
  Report.emit table;
  (match
     List.filter (fun r -> r.decay <> None && r.approg <> None) rows
   with
   | [] | [ _ ] -> print_endline "shape check: not enough complete rows"
   | complete ->
     let deltas_f =
       Array.of_list (List.map (fun r -> float_of_int r.delta) complete)
     in
     let decay_means =
       Array.of_list
         (List.map (fun r -> (Option.get r.decay).Summary.mean) complete)
     in
     print_endline
       (Report.shape_verdict ~label:"Decay ~ Delta (Theorem 8.1)" deltas_f
          decay_means);
     let first = List.hd complete and last = List.nth complete (List.length complete - 1) in
     Fmt.pr
       "separation: Delta grew %.1fx; Decay grew %.2fx while Algorithm 9.1 \
        grew %.2fx@."
       (float_of_int last.delta /. float_of_int first.delta)
       ((Option.get last.decay).Summary.mean
        /. (Option.get first.decay).Summary.mean)
       ((Option.get last.approg).Summary.mean
        /. (Option.get first.approg).Summary.mean));
  rows
