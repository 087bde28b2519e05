(* The large-n engine workload: streamed placement, sparse resolution and
   random transmitters, timed in two parts (set-up, then the slots). *)

open Sinr_geom
open Sinr_phys
open Sinr_engine

type result = {
  setup_s : float;
  run_s : float;
  slots_per_s : float;
  tx : int;
  deliveries : int;
  sparse : bool;
}

let run ~seed ~n ~slots =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create seed in
  (* Constant density: ~20 in-range neighbours per node at R = 12. *)
  let side = 4.4 *. sqrt (float_of_int n) in
  let soa = Soa.create ~n in
  Placement.uniform_stream rng ~n ~box:(Box.square ~side) ~min_dist:1.
    ~set:(fun i ~x ~y -> Soa.set soa i ~x ~y)
    ~x:(Soa.x soa) ~y:(Soa.y soa);
  let sinr = Sinr.create_soa ~check:false Config.default soa in
  let eng = Engine.create sinr in
  Engine.wake_all eng;
  let setup_s = Unix.gettimeofday () -. t0 in
  let p = float_of_int (max 64 (min 1000 (n / 333))) /. float_of_int n in
  let decide v =
    if Rng.hash_unit rng (Engine.slot eng) v < p then Some v else None
  in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to slots do
    ignore (Engine.step_select eng ~select:(Engine.walk eng ~decide) : int)
  done;
  let run_s = Unix.gettimeofday () -. t1 in
  { setup_s;
    run_s;
    slots_per_s = float_of_int slots /. Float.max run_s 1e-9;
    tx = Engine.tx_total eng;
    deliveries = Engine.delivery_total eng;
    sparse = Sinr.sparse sinr <> None }
