(* Set-up path equivalence: the flat cell index, the induced graphs, Delta
   and Lambda, the array BFS and the connected-deployment retry loop,
   each against a brute-force reference over every placement family. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_mac
module W = Sinr_expt.Workloads

(* ---------------- References ---------------- *)

let brute_min_d2 pts =
  let n = Array.length pts and best = ref Float.infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d2 = Point.dist2 pts.(i) pts.(j) in
      if d2 < !best then best := d2
    done
  done;
  !best

(* The disc graph by definition: every pair tested. *)
let brute_disc pts ~radius =
  let r2 = radius *. radius and bound = radius +. 1e-12 in
  Graph.of_predicate ~n:(Array.length pts) (fun v u ->
      Point.dist2 pts.(u) pts.(v) <= r2 && Point.dist pts.(v) pts.(u) <= bound)

let brute_lambda ~radius pts =
  let dmin = sqrt (brute_min_d2 pts) in
  if dmin = Float.infinity then 1.0 else Float.max 1.0 (radius /. dmin)

(* Hop distances over Stdlib.Queue, as the library computed them before
   its array BFS. *)
let queue_distances g ~src =
  let dist = Array.make (Graph.n g) Bfs.unreachable in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun u ->
        if dist.(u) = Bfs.unreachable then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u q
        end)
      (Graph.neighbors g v)
  done;
  dist

let queue_labels g =
  let n = Graph.n g in
  let label = Array.make n (-1) and next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) = -1 then begin
      let id = !next in
      incr next;
      let q = Queue.create () in
      label.(v) <- id;
      Queue.add v q;
      while not (Queue.is_empty q) do
        Array.iter
          (fun u ->
            if label.(u) = -1 then begin
              label.(u) <- id;
              Queue.add u q
            end)
          (Graph.neighbors g (Queue.pop q))
      done
    end
  done;
  label

(* ---------------- Generated deployments ---------------- *)

let families = 9

(* A deployment from family [seed mod families], about [size] nodes. *)
let family seed size =
  let rng = Rng.create seed in
  let box side = Box.square ~side in
  match seed mod families with
  | 0 -> Placement.uniform rng ~n:size ~box:(box (3. *. sqrt (float_of_int size))) ~min_dist:1.
  | 1 ->
    let soa = Soa.create ~n:size in
    Placement.uniform_stream rng ~n:size ~box:(box (4.4 *. sqrt (float_of_int size)))
      ~min_dist:1. ~set:(fun i ~x ~y -> Soa.set soa i ~x ~y) ~x:(Soa.x soa) ~y:(Soa.y soa);
    Soa.to_points soa
  | 2 ->
    let nx = 1 + (size / 8) in
    Placement.jittered_grid rng ~nx ~ny:8 ~spacing:(2. +. Rng.float rng 6.) ~jitter:0.4
  | 3 -> Placement.line ~n:size ~spacing:(1. +. Rng.float rng 9.)
  | 4 ->
    Placement.line_with_blob rng ~line_n:(size / 2) ~spacing:(3. +. Rng.float rng 6.)
      ~blob_n:(size / 2) ~blob_radius:(2. *. sqrt (float_of_int size))
  | 5 ->
    Placement.clusters rng ~k:3 ~per_cluster:(size / 3) ~cluster_radius:6.
      ~centers_box:(box 200.)
  | 6 ->
    (Placement.two_lines ~delta:(size / 2) ~spacing:1. ~gap:(10. *. float_of_int (size / 2)))
      .Placement.points
  | 7 ->
    (Placement.two_balls rng ~delta:(size / 2) ~radius:(2. *. sqrt (float_of_int size))
       ~center_dist:(9. *. sqrt (float_of_int size)))
      .Placement.points
  | _ -> (Placement.star rng ~delta:size ~radius:(2. *. sqrt (float_of_int size))).Placement.points

(* Nodes at exactly [radius], and one ulp either side, from an anchor at
   the origin and from one placed node: the window edge and the inclusive
   test are where an index can go wrong. *)
let with_boundary pts ~radius =
  let far = 4. *. radius +. 10. in
  let shifted = Array.map (fun (p : Point.t) -> Point.make (p.x +. far) p.y) pts in
  let anchor = shifted.(Array.length shifted / 2) in
  let around (c : Point.t) =
    [ Point.make (c.x +. radius) c.y;
      Point.make c.x (c.y +. Float.succ radius);
      Point.make (c.x -. Float.pred radius) c.y;
      Point.make c.x (c.y -. radius) ]
  in
  Array.concat
    [ shifted; [| Point.origin |]; Array.of_list (around Point.origin);
      Array.of_list (around anchor) ]

let case =
  QCheck.(triple (int_range 0 100_000) (int_range 4 120) (float_range 0.5 30.))

let print_case (seed, size, radius) =
  Printf.sprintf "family %d seed %d size %d radius %h" (seed mod families) seed size radius

let case = QCheck.set_print print_case case

let points_of (seed, size, radius) =
  let pts = family seed size in
  if seed land 1 = 0 then with_boundary pts ~radius else pts

let prop_disc_graph =
  QCheck.Test.make ~name:"disc graph = all-pairs predicate" ~count:150 case
    (fun ((_, _, radius) as c) ->
      let pts = points_of c in
      Graph.equal (Induced.disc_graph pts ~radius) (brute_disc pts ~radius))

let prop_local_params =
  QCheck.Test.make ~name:"local params = max degree and brute-force lambda"
    ~count:150 case (fun (seed, size, radius) ->
      let config = Config.with_range ~range:(radius /. 0.9) ~eps:0.1 () in
      let strong_r = Config.strong_range config in
      let pts = points_of (seed, size, strong_r) in
      let l = Induced.local_params config (Soa.of_points pts) in
      l.Induced.delta = Graph.max_degree (Induced.strong config pts)
      && Float.equal l.Induced.lambda (brute_lambda ~radius:strong_r pts)
      && Float.equal l.Induced.lambda (Induced.lambda config pts))

let fst3 (a, _, _) = a

let prop_min_dist =
  QCheck.Test.make ~name:"min pairwise dist and nearest = brute force" ~count:150
    case (fun c ->
      let pts = points_of c in
      let n = Array.length pts in
      let idx = Grid_index.create ~cell:(1. +. float_of_int (fst3 c mod 7)) pts in
      let nearest_ok i =
        match Grid_index.nearest_other idx i with
        | None -> n < 2
        | Some (j, d) ->
          let best = ref Float.infinity in
          Array.iteri
            (fun k p -> if k <> i then best := Float.min !best (Point.dist2 p pts.(i)))
            pts;
          j <> i && Float.equal d (sqrt !best)
          && Float.equal (Point.dist2 pts.(j) pts.(i)) !best
      in
      Float.equal (Placement.min_pairwise_dist pts) (sqrt (brute_min_d2 pts))
      && List.for_all nearest_ok (List.init (min n 20) Fun.id))

let prop_bfs =
  QCheck.Test.make ~name:"array BFS = queue BFS (distances, diameter, labels)"
    ~count:150 case (fun ((_, _, radius) as c) ->
      let pts = points_of c in
      let g = Induced.disc_graph pts ~radius in
      let n = Graph.n g in
      let within = n / 3 in
      let from_within = queue_distances g ~src:within in
      let diam = ref 0 in
      for v = 0 to n - 1 do
        if from_within.(v) <> Bfs.unreachable then
          Array.iter
            (fun d -> if d <> Bfs.unreachable && d > !diam then diam := d)
            (queue_distances g ~src:v)
      done;
      Bfs.diameter ~within g = !diam
      && Bfs.distances g ~src:within = from_within
      && Components.labels g = queue_labels g)

(* Workloads.connected against the retry loop it replaces: same derived
   seeds, same accepted draw, same profile. *)
let prop_connected =
  QCheck.Test.make ~name:"connected = reference retry loop" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 2 7))
    (fun (seed, degree) ->
      let build rng = W.uniform rng ~n:40 ~target_degree:degree in
      let reference () =
        let rng = Rng.create seed in
        let rec go k =
          if k = 0 then None
          else begin
            let d = build (Rng.split rng ~key:(1000 + k)) in
            if Components.is_connected d.W.profile.Induced.strong then Some d
            else go (k - 1)
          end
        in
        go 4
      in
      let got =
        match W.connected ~attempts:4 (Rng.create seed) build with
        | d -> Some d
        | exception Placement.Placement_failed _ -> None
      in
      match (got, reference ()) with
      | None, None -> true
      | Some a, Some b ->
        Sinr.points a.W.sinr = Sinr.points b.W.sinr
        && a.W.name = b.W.name
        && a.W.profile.Induced.strong_diameter = b.W.profile.Induced.strong_diameter
        && a.W.profile.Induced.approx_diameter = b.W.profile.Induced.approx_diameter
        && Float.equal a.W.profile.Induced.lambda b.W.profile.Induced.lambda
        && Graph.equal a.W.profile.Induced.weak b.W.profile.Induced.weak
        && Graph.equal a.W.profile.Induced.approx b.W.profile.Induced.approx
      | _ -> false)

(* ---------------- Allocation ceiling ---------------- *)

(* Bytes Combined_mac.create allocates at n = 32768 on absmac-32k's
   deployment (side 4.4 sqrt n, seed 1).  Measured 8.53 MB (within 3 kB
   across runs) with OCaml 5.1.1: the MAC's O(n) state plus ~1.9 MB for
   Delta and Lambda (the index and two query buffers).  The ceiling is
   that plus 15%.  Building
   G_{1-eps} from list cells to read its max degree, as the set-up once
   did, allocated 265 MB here. *)
let create_bytes_ceiling = 9_810_000.

let test_create_alloc () =
  let n = 32_768 in
  let rng = Rng.create 1 in
  let side = 4.4 *. sqrt (float_of_int n) in
  let soa = Soa.create ~n in
  Placement.uniform_stream (Rng.split rng ~key:1) ~n ~box:(Box.square ~side) ~min_dist:1.
    ~set:(fun i ~x ~y -> Soa.set soa i ~x ~y) ~x:(Soa.x soa) ~y:(Soa.y soa);
  let sinr = Sinr.create_soa ~check:false Config.default soa in
  (* A first create sizes the domain's shared scratch, whose growth
     depends on what earlier tests ran (some draw fresh qcheck seeds); the
     second one allocates exactly what a create costs. *)
  ignore (Sys.opaque_identity (Combined_mac.create sinr ~rng:(Rng.split rng ~key:2)));
  let before = Gc.allocated_bytes () in
  let mac = Combined_mac.create sinr ~rng:(Rng.split rng ~key:2) in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity mac);
  if bytes > create_bytes_ceiling then
    Alcotest.failf "Combined_mac.create allocated %.0f bytes at n = %d (ceiling %.0f)"
      bytes n create_bytes_ceiling

let fixed_rand () = Random.State.make [| 2707 |]

let suite =
  [ QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_disc_graph;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_local_params;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_min_dist;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_bfs;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_connected;
    Alcotest.test_case "mac create allocation at n=32768" `Quick test_create_alloc ]
