(* SINR-induced connectivity graphs (paper Section 4.3).

   G_a connects u -- v iff d(u, v) <= R_a = a * R.  The paper works with

     G_1      weak connectivity (communication possible but unreliable),
     G_{1-eps}   strong connectivity, where local broadcast is implemented,
     G_{1-2eps}  the approximation in which approximate progress is measured,

   and with Lambda, the ratio of R_{1-eps} to the minimum pairwise node
   distance.

   Everything here runs on a flat [Grid_index] with the query radius as
   its cell: a graph row is one window query into a reused int buffer,
   filtered and int-sorted into an exact-size array (no cons cell, no
   polymorphic compare), and [local_params] reads Delta and Lambda off the
   same queries without building any graph at all. *)

open Sinr_geom
open Sinr_graph

(* u -- v in G of radius [radius]: the index's inclusive test d^2 <= r^2
   and the distance itself within [radius + 1e-12]. *)
let disc_graph points ~radius =
  let n = Array.length points in
  if n = 0 then Graph.empty 0
  else begin
    let idx = Grid_index.create ~cell:(Float.max radius 1e-6) points in
    let ids = Array.make n 0 and d2 = Float.Array.create n in
    let bound = radius +. 1e-12 in
    let rows = Array.make n [||] in
    Grid_index.iter_cell_order idx (fun v ->
        let k = Grid_index.within_node idx v ~r:radius ids d2 in
        let m = ref 0 in
        for j = 0 to k - 1 do
          let u = ids.(j) in
          if u <> v && sqrt (Float.Array.unsafe_get d2 j) <= bound then begin
            ids.(!m) <- u;
            incr m
          end
        done;
        Grid_index.sort_ids ids !m;
        rows.(v) <- Array.sub ids 0 !m);
    Graph.of_rows rows
  end

let graph_a config points ~a = disc_graph points ~radius:(Config.range_a config a)

let weak config points = graph_a config points ~a:1.0

let strong config points =
  graph_a config points ~a:(1. -. config.Config.eps)

let approx config points =
  graph_a config points ~a:(1. -. (2. *. config.Config.eps))

(* Lambda := R_{1-eps} / (min pairwise distance); at least 1 under the
   near-field normalization. *)
let lambda config points =
  Geo_metrics.lambda_of_radius ~radius:(Config.strong_range config) points

type local = { delta : int; lambda : float }

(* Delta and Lambda from the position columns, in one pass of window
   queries of radius R_{1-eps}: node v's degree in G_{1-eps} is the count
   of its window's hits passing [disc_graph]'s test, and the smallest
   squared distance among all hits is the global minimum whenever there
   is a hit (a closer pair would be a hit too).  With no pair inside
   R_{1-eps} the index's own min-distance pass settles Lambda.  Equal to
   [Graph.max_degree (strong config pts)] and [lambda config pts]. *)
let local_params config soa =
  let radius = Config.strong_range config in
  let n = Soa.length soa in
  let idx =
    Grid_index.of_columns ~cell:(Float.max radius 1e-6) (Soa.xs soa) (Soa.ys soa)
  in
  let ids = Array.make n 0 and d2 = Float.Array.create n in
  let bound = radius +. 1e-12 in
  let delta = ref 0 and min_d2 = ref Float.infinity in
  Grid_index.iter_cell_order idx (fun v ->
      let k = Grid_index.within_node idx v ~r:radius ids d2 in
      let deg = ref 0 in
      for j = 0 to k - 1 do
        if Array.unsafe_get ids j <> v then begin
          let dd = Float.Array.unsafe_get d2 j in
          if dd < !min_d2 then min_d2 := dd;
          if sqrt dd <= bound then incr deg
        end
      done;
      if !deg > !delta then delta := !deg);
  let min_d2 =
    if !min_d2 < Float.infinity then !min_d2 else Grid_index.min_dist2 idx
  in
  let dmin = sqrt min_d2 in
  { delta = !delta;
    lambda = (if dmin = Float.infinity then 1.0 else Float.max 1.0 (radius /. dmin)) }

(* All three graphs plus the metrics an experiment typically reports. *)
type profile = {
  weak : Graph.t;
  strong : Graph.t;
  approx : Graph.t;
  lambda : float;
  strong_degree : int;
  strong_diameter : int;
  approx_diameter : int;
}

let profile ?strong:strong_g config points =
  let strong_g =
    match strong_g with Some g -> g | None -> strong config points
  in
  let approx_g = approx config points in
  { weak = weak config points;
    strong = strong_g;
    approx = approx_g;
    lambda = lambda config points;
    strong_degree = Graph.max_degree strong_g;
    strong_diameter = Bfs.diameter strong_g;
    approx_diameter = Bfs.diameter approx_g }
