(* Deployment builders for the experiments.

   Each builder returns the SINR instance plus the induced-graph profile,
   so experiment tables can report the actual Delta, D and Lambda of every
   run alongside the measurements. *)

open Sinr_geom
open Sinr_phys

type deployment = {
  name : string;
  sinr : Sinr.t;
  profile : Induced.profile;
}

(* Set while [connected] draws: [make] then builds the strong graph
   first and gives a disconnected draw up at once, before the simulator,
   the other graphs, Lambda and the two all-pairs diameters are paid for. *)
exception Disconnected

let drawing = Domain.DLS.new_key (fun () -> false)

let make ~name config points =
  let strong = Induced.strong config points in
  if Domain.DLS.get drawing && not (Sinr_graph.Components.is_connected strong)
  then raise Disconnected;
  let profile = Induced.profile ~strong config points in
  { name; sinr = Sinr.create config points; profile }

(* The paper assumes G_{1-eps} is connected (Section 4.6); experiment
   deployments retry with derived seeds until that holds.  A builder that
   goes through [make] stops a rejected draw right after the strong
   graph's component check (see [drawing]); any other is checked once
   built. *)
let connected ?(attempts = 25) rng build =
  let draw k =
    let outer = Domain.DLS.get drawing in
    Domain.DLS.set drawing true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set drawing outer) @@ fun () ->
    match build (Rng.split rng ~key:(1000 + k)) with
    | d when Sinr_graph.Components.is_connected d.profile.Induced.strong -> Some d
    | _ | (exception Disconnected) -> None
  in
  let rec go k =
    if k = 0 then
      raise
        (Sinr_geom.Placement.Placement_failed
           "Workloads.connected: no connected deployment found")
    else match draw k with Some d -> d | None -> go (k - 1)
  in
  go attempts

(* Uniform deployment with expected strong-graph degree ~ [target_degree]:
   the area scales with n so density (and hence Delta) stays put while n
   and D grow. *)
let uniform ?(config = Config.default) rng ~n ~target_degree =
  let r = Config.strong_range config in
  (* density nodes per unit area so that a disc of radius r holds
     target_degree nodes: rho = target_degree / (pi r^2). *)
  let rho = float_of_int target_degree /. (Float.pi *. r *. r) in
  let side = sqrt (float_of_int n /. rho) in
  let pts =
    Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.
  in
  make ~name:(Fmt.str "uniform(n=%d,deg~%d)" n target_degree) config pts

(* Degree sweep at fixed n: vary the box side directly. *)
let uniform_density ?(config = Config.default) rng ~n ~side =
  let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  make ~name:(Fmt.str "uniform(n=%d,side=%.0f)" n side) config pts

(* Lambda sweep: Lambda = R(1-eps)/d_min, so scale the transmission range
   while keeping roughly [per_range] nodes per transmission-range disc. *)
let lambda_sweep rng ~range ~n ~per_range =
  let config = Config.with_range ~range () in
  let r = Config.strong_range config in
  let rho = float_of_int per_range /. (Float.pi *. r *. r) in
  let side = Float.max (2. *. r) (sqrt (float_of_int n /. rho)) in
  let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  make ~name:(Fmt.str "lambda(R=%.0f,n=%d)" range n) config pts

(* Remark 5.3 star: a hub surrounded by delta broadcasting leaves. *)
let star ?(config = Config.default) rng ~delta =
  let radius = Config.approx_range config *. 0.9 in
  let s = Placement.star rng ~delta ~radius in
  let d = make ~name:(Fmt.str "star(delta=%d)" delta) config s.Placement.points in
  (d, s)

(* Theorem 6.1 / Figure 1: two parallel lines with R(1-eps) = 10*delta. *)
let fig1 ~delta =
  let gap0 = 10. *. float_of_int delta in
  let eps = Config.default.Config.eps in
  let config = Config.with_range ~range:(gap0 /. (1. -. eps)) ~eps () in
  let gap = Config.strong_range config *. (1. -. 1e-9) in
  let tl = Placement.two_lines ~delta ~spacing:1. ~gap in
  let d = make ~name:(Fmt.str "fig1(delta=%d)" delta) config tl.Placement.points in
  (d, tl)

(* Theorem 8.1: a 2-node ball and a delta-node ball, radius R/4, centers
   2R apart.  The range scales with sqrt(delta) so that delta unit-spaced
   nodes fit in the R/4 ball (the paper's construction assumes the ball is
   large enough; only ratios matter to the argument). *)
let two_balls ?config rng ~delta =
  let config =
    match config with
    | Some c -> c
    | None ->
      let range =
        Float.max 12. (5. *. sqrt (float_of_int delta))
      in
      Config.with_range ~range ()
  in
  let r = Config.range config in
  let tb =
    Placement.two_balls rng ~delta ~radius:(r /. 4.) ~center_dist:(2. *. r)
  in
  let d =
    make ~name:(Fmt.str "two_balls(delta=%d)" delta) config tb.Placement.points
  in
  (d, tb)

(* Diameter sweep: a line of [hops+1] nodes spaced most of the strong
   range apart, so D ~ hops while Delta stays small. *)
let line ?(config = Config.default) ~hops () =
  let spacing = 0.85 *. Config.approx_range config in
  let pts = Placement.line ~n:(hops + 1) ~spacing in
  make ~name:(Fmt.str "line(hops=%d)" hops) config pts
