(* The experiments the daemon knows how to serve, as (param, seed) -> JSON
   cell functions.  Cells must be pure in their pair — all randomness from
   seeded streams, results independent of execution order — because the
   runner records them through the [Sweep.cursor] and replays them from
   checkpoints.

   Cell JSON only uses shapes whose printing round-trips byte-stably
   (integers, %.17g floats, null for missing), so a restored cell prints
   exactly like the fresh one it checkpointed. *)

open Sinr_expt
open Sinr_obs
module Failpoint = Sinr_chaos.Chaos.Failpoint

type t = {
  name : string;
  param_name : string;
  check_param : int -> (unit, string) result;
  cell : param:int -> seed:int -> Json.t;
}

let range name lo hi v =
  if v < lo || v > hi then
    Error (Printf.sprintf "%s %d out of range [%d, %d]" name v lo hi)
  else Ok ()

(* -- ack: Exp_ack's star grid, param = requested Delta ---------------- *)

let ack_cell ~param:delta ~seed =
  (* the lib/chaos process-level failpoint: disarmed it is one atomic
     load; armed (tests, SINR_FAILPOINTS) it injects a cell failure or a
     stall so the supervisor's retry/quarantine/timeout paths can be
     exercised through the public surface *)
  Failpoint.hit "serve.cell";
  let c = Exp_ack.star_cell ~delta seed in
  Json.Obj
    [ ("delta", Json.int c.Exp_ack.c_delta);
      ("lambda", Json.Num c.Exp_ack.c_lambda);
      ( "mean",
        match c.Exp_ack.c_mean with
        | None -> Json.Null
        | Some m -> Json.Num m );
      ("nice", Json.int c.Exp_ack.c_nice);
      ("total", Json.int c.Exp_ack.c_total) ]

(* -- chaos: one jamming point of E-chaos, param = duty percent -------- *)

let chaos_cell ~param ~seed =
  Failpoint.hit "serve.cell";
  let spec =
    { Exp_chaos.clean with
      Exp_chaos.jam_duty = float_of_int param /. 100. }
  in
  let o = Exp_chaos.run_scenario ~n:36 ~degree:6 ~seed spec in
  Json.Obj
    [ ("senders", Json.int o.Exp_chaos.o_senders);
      ("acked", Json.int o.Exp_chaos.o_acked);
      ("gave_up", Json.int o.Exp_chaos.o_gave_up);
      ("ack_mean", Json.Num o.Exp_chaos.o_ack_mean);
      ("ack_max", Json.int o.Exp_chaos.o_ack_max);
      ("reissues", Json.int o.Exp_chaos.o_reissues);
      ("forced_aborts", Json.int o.Exp_chaos.o_forced_aborts);
      ("prog_violations", Json.int o.Exp_chaos.o_prog_violations);
      ("slots", Json.int o.Exp_chaos.o_slots) ]

let all =
  [ { name = "ack";
      param_name = "delta";
      check_param = range "delta" 1 128;
      cell = ack_cell };
    { name = "chaos";
      param_name = "jam_pct";
      check_param = range "jam_pct" 0 100;
      cell = chaos_cell } ]

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

let resolve (spec : Spec.t) =
  match find spec.Spec.exp with
  | None ->
    Error
      (Printf.sprintf "unknown experiment %S (have: %s)" spec.Spec.exp
         (String.concat ", " (names ())))
  | Some e -> (
    match
      List.fold_left
        (fun acc p ->
          match acc with Error _ -> acc | Ok () -> e.check_param p)
        (Ok ()) spec.Spec.params
    with
    | Error msg -> Error msg
    | Ok () -> Ok e)
