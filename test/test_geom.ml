(* Tests for the geometry substrate. *)

open Sinr_geom

let rng () = Rng.create 42

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let c1 = Rng.split parent ~key:1 and c2 = Rng.split parent ~key:2 in
  let s1 = List.init 50 (fun _ -> Rng.int c1 1_000_000) in
  let s2 = List.init 50 (fun _ -> Rng.int c2 1_000_000) in
  Alcotest.(check bool) "different streams" true (s1 <> s2)

let test_rng_split_reproducible () =
  let mk () = Rng.split (Rng.create 9) ~key:33 in
  let a = mk () and b = mk () in
  Alcotest.(check int) "same derived stream" (Rng.int a 9999) (Rng.int b 9999)

let test_rng_bernoulli_extremes () =
  let r = rng () in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.)

let test_rng_bernoulli_rate () =
  let r = rng () in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_int_range () =
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Rng.int_range r 5 9 in
    Alcotest.(check bool) "in range" true (v >= 5 && v <= 9)
  done

let test_rng_shuffle_permutes () =
  let r = rng () in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* ---------------- Point ---------------- *)

let test_point_dist () =
  let a = Point.make 0. 0. and b = Point.make 3. 4. in
  Alcotest.(check (float 1e-9)) "3-4-5" 5.0 (Point.dist a b);
  Alcotest.(check (float 1e-9)) "squared" 25.0 (Point.dist2 a b)

let test_point_linf () =
  let a = Point.make 0. 0. and b = Point.make 3. 4. in
  Alcotest.(check (float 1e-9)) "linf" 4.0 (Point.dist_linf a b)

let test_point_algebra () =
  let a = Point.make 1. 2. and b = Point.make 3. 5. in
  Alcotest.(check bool) "add" true
    (Point.equal (Point.add a b) (Point.make 4. 7.));
  Alcotest.(check bool) "sub" true
    (Point.equal (Point.sub b a) (Point.make 2. 3.));
  Alcotest.(check bool) "scale" true
    (Point.equal (Point.scale 2. a) (Point.make 2. 4.))

let test_point_on_circle () =
  let c = Point.make 1. 1. in
  let p = Point.on_circle ~center:c ~r:2. ~theta:0. in
  Alcotest.(check (float 1e-9)) "radius" 2.0 (Point.dist c p)

(* ---------------- Box ---------------- *)

let test_box_contains () =
  let b = Box.square ~side:10. in
  Alcotest.(check bool) "inside" true (Box.contains b (Point.make 5. 5.));
  Alcotest.(check bool) "outside" false (Box.contains b (Point.make 11. 5.))

let test_box_of_points () =
  let pts = [| Point.make 1. 2.; Point.make 4. 0.; Point.make 2. 5. |] in
  let b = Box.of_points pts in
  Alcotest.(check (float 1e-9)) "width" 3.0 (Box.width b);
  Alcotest.(check (float 1e-9)) "height" 5.0 (Box.height b);
  Array.iter
    (fun p -> Alcotest.(check bool) "contains all" true (Box.contains b p))
    pts

let test_box_sample_inside () =
  let r = rng () in
  let b = Box.make ~xmin:2. ~ymin:3. ~xmax:7. ~ymax:4. in
  for _ = 1 to 200 do
    Alcotest.(check bool) "sample inside" true (Box.contains b (Box.sample r b))
  done

let test_box_invalid () =
  Alcotest.check_raises "inverted box"
    (Invalid_argument "Box.make: inverted box") (fun () ->
      ignore (Box.make ~xmin:1. ~ymin:0. ~xmax:0. ~ymax:1.))

(* ---------------- Grid_index ---------------- *)

let test_grid_within_matches_bruteforce () =
  let r = rng () in
  let pts =
    Array.init 120 (fun _ ->
        Point.make (Rng.float r 50.) (Rng.float r 50.))
  in
  let idx = Grid_index.create ~cell:5.0 pts in
  for _ = 1 to 30 do
    let center = Point.make (Rng.float r 50.) (Rng.float r 50.) in
    let radius = Rng.float r 15. in
    let got = List.sort compare (Grid_index.within idx ~center ~r:radius) in
    let expect =
      List.filter
        (fun i -> Point.dist pts.(i) center <= radius)
        (List.init (Array.length pts) Fun.id)
    in
    Alcotest.(check (list int)) "grid = brute force" expect got
  done

let test_grid_nearest_other () =
  let pts = [| Point.make 0. 0.; Point.make 3. 0.; Point.make 10. 0. |] in
  let idx = Grid_index.create ~cell:2. pts in
  (match Grid_index.nearest_other idx 0 with
   | Some (j, d) ->
     Alcotest.(check int) "nearest id" 1 j;
     Alcotest.(check (float 1e-9)) "nearest dist" 3.0 d
   | None -> Alcotest.fail "expected a neighbor");
  let single = Grid_index.create ~cell:2. [| Point.origin |] in
  Alcotest.(check bool) "singleton has none" true
    (Grid_index.nearest_other single 0 = None)

(* ---------------- Placement ---------------- *)

let test_uniform_min_dist () =
  let r = rng () in
  let pts = Placement.uniform r ~n:150 ~box:(Box.square ~side:60.) ~min_dist:1. in
  Alcotest.(check int) "count" 150 (Array.length pts);
  Alcotest.(check bool) "min dist" true (Placement.min_pairwise_dist pts >= 1.)

let test_uniform_too_crowded () =
  let r = rng () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Placement.uniform r ~n:100 ~box:(Box.square ~side:5.) ~min_dist:1.);
       false
     with Placement.Placement_failed _ -> true)

let test_jittered_grid () =
  let r = rng () in
  let pts = Placement.jittered_grid r ~nx:8 ~ny:7 ~spacing:3. ~jitter:0.5 in
  Alcotest.(check int) "count" 56 (Array.length pts);
  Alcotest.(check bool) "min dist" true (Placement.min_pairwise_dist pts >= 1.)

let test_line () =
  let pts = Placement.line ~n:10 ~spacing:2. in
  Alcotest.(check int) "count" 10 (Array.length pts);
  Alcotest.(check (float 1e-9)) "spacing" 2.0
    (Point.dist pts.(0) pts.(1));
  Alcotest.(check (float 1e-9)) "length" 18.0
    (Point.dist pts.(0) pts.(9))

let test_two_lines_structure () =
  let tl = Placement.two_lines ~delta:5 ~spacing:1. ~gap:50. in
  Alcotest.(check int) "total points" 10 (Array.length tl.points);
  Array.iteri
    (fun i v ->
      let u = tl.receivers.(i) in
      Alcotest.(check (float 1e-9)) "paired distance = gap" 50.
        (Point.dist tl.points.(v) tl.points.(u)))
    tl.senders;
  (* Cross links other than the paired one are strictly longer. *)
  Alcotest.(check bool) "unpaired strictly longer" true
    (Point.dist tl.points.(tl.senders.(0)) tl.points.(tl.receivers.(1)) > 50.)

let test_two_balls_structure () =
  let r = rng () in
  let tb = Placement.two_balls r ~delta:20 ~radius:8. ~center_dist:40. in
  Alcotest.(check int) "ball1 size" 2 (Array.length tb.ball1);
  Alcotest.(check int) "ball2 size" 20 (Array.length tb.ball2);
  Alcotest.(check bool) "min dist" true
    (Placement.min_pairwise_dist tb.points >= 1.);
  (* Every ball2 node is far from every ball1 node. *)
  Array.iter
    (fun i ->
      Array.iter
        (fun j ->
          Alcotest.(check bool) "balls separated" true
            (Point.dist tb.points.(i) tb.points.(j) >= 40. -. 16.))
        tb.ball2)
    tb.ball1

let test_star_structure () =
  let r = rng () in
  let s = Placement.star r ~delta:12 ~radius:5. in
  Alcotest.(check int) "points" 13 (Array.length s.points);
  Array.iter
    (fun leaf ->
      Alcotest.(check bool) "leaf in radius" true
        (Point.dist s.points.(s.hub) s.points.(leaf) <= 5.))
    s.leaves;
  Alcotest.(check bool) "min dist" true
    (Placement.min_pairwise_dist s.points >= 1.)

let test_clusters () =
  let r = rng () in
  let pts =
    Placement.clusters r ~k:3 ~per_cluster:10 ~cluster_radius:4.
      ~centers_box:(Box.square ~side:80.)
  in
  Alcotest.(check int) "count" 30 (Array.length pts);
  Alcotest.(check bool) "min dist" true (Placement.min_pairwise_dist pts >= 1.)

let test_line_with_blob () =
  let r = rng () in
  let pts =
    Placement.line_with_blob r ~line_n:10 ~spacing:4. ~blob_n:15 ~blob_radius:6.
  in
  Alcotest.(check int) "count" 25 (Array.length pts);
  Alcotest.(check bool) "min dist" true (Placement.min_pairwise_dist pts >= 1.)

let test_min_pairwise_brute_agreement () =
  let r = rng () in
  for _ = 1 to 10 do
    let pts =
      Placement.uniform r ~n:40 ~box:(Box.square ~side:30.) ~min_dist:1.
    in
    let brute = ref Float.infinity in
    Array.iteri
      (fun i p ->
        Array.iteri
          (fun j q -> if i < j then brute := Float.min !brute (Point.dist p q))
          pts)
      pts;
    Alcotest.(check (float 1e-9)) "grid = brute" !brute
      (Placement.min_pairwise_dist pts)
  done

(* QCheck properties *)

let prop_dist_symmetric =
  QCheck.Test.make ~name:"point distance symmetric" ~count:200
    QCheck.(quad (float_bound_exclusive 100.) (float_bound_exclusive 100.)
              (float_bound_exclusive 100.) (float_bound_exclusive 100.))
    (fun (x1, y1, x2, y2) ->
      let a = Point.make x1 y1 and b = Point.make x2 y2 in
      Float.abs (Point.dist a b -. Point.dist b a) < 1e-9)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    QCheck.(triple (pair (float_bound_exclusive 50.) (float_bound_exclusive 50.))
              (pair (float_bound_exclusive 50.) (float_bound_exclusive 50.))
              (pair (float_bound_exclusive 50.) (float_bound_exclusive 50.)))
    (fun ((x1, y1), (x2, y2), (x3, y3)) ->
      let a = Point.make x1 y1
      and b = Point.make x2 y2
      and c = Point.make x3 y3 in
      Point.dist a c <= Point.dist a b +. Point.dist b c +. 1e-9)

(* Rng.bernoulli compares raw bits where the stdlib draws a float: for
   every p, including the clamped and degenerate ones, the outcome and
   the state advance must be those of [Random.State.float s 1.0 < p].
   [Rng.create seed] draws from [Random.State.make [| seed |]], so a
   reference stream made the same way is an independent copy of it; the
   next 8 draws after each p check that both advanced alike. *)
let special_ps =
  [ -1.; -0.; 0.; 5e-324; Float.min_float; 1e-17; 0x1p-53; 0.5;
    Float.pred 1.; 1.; 2.; Float.infinity; Float.neg_infinity; Float.nan ]

let prop_bernoulli_raw_bits =
  QCheck.Test.make ~name:"rng: bernoulli = stdlib float draw" ~count:200
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 40)
              (list_of_size (Gen.return 8) (float_bound_inclusive 1.)))
    (fun (seed, skip, next) ->
      let r = Rng.create seed and s = Random.State.make [| seed |] in
      for _ = 1 to skip do
        ignore (Rng.float r 1.0 : float);
        ignore (Random.State.float s 1.0 : float)
      done;
      let agrees p =
        let want =
          if p <= 0. then false
          else if p >= 1. then true
          else Random.State.float s 1.0 < p
        in
        Rng.bernoulli r p = want
      in
      let column = Float.Array.of_list next in
      List.for_all
        (fun p ->
          agrees p
          && List.for_all agrees next
          && List.for_all
               (fun i ->
                 let want = Random.State.float s 1.0 < Float.Array.get column i in
                 Rng.bernoulli_at r column i = want)
               (List.init (Float.Array.length column) Fun.id))
        (special_ps @ next))

let prop_linf_le_l2 =
  QCheck.Test.make ~name:"L-inf <= L2" ~count:200
    QCheck.(quad (float_bound_exclusive 100.) (float_bound_exclusive 100.)
              (float_bound_exclusive 100.) (float_bound_exclusive 100.))
    (fun (x1, y1, x2, y2) ->
      let a = Point.make x1 y1 and b = Point.make x2 y2 in
      Point.dist_linf a b <= Point.dist a b +. 1e-9)

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng split reproducible" `Quick test_rng_split_reproducible;
    Alcotest.test_case "rng bernoulli extremes" `Quick test_rng_bernoulli_extremes;
    Alcotest.test_case "rng bernoulli rate" `Quick test_rng_bernoulli_rate;
    Alcotest.test_case "rng int_range" `Quick test_rng_int_range;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "point distance" `Quick test_point_dist;
    Alcotest.test_case "point linf" `Quick test_point_linf;
    Alcotest.test_case "point algebra" `Quick test_point_algebra;
    Alcotest.test_case "point on_circle" `Quick test_point_on_circle;
    Alcotest.test_case "box contains" `Quick test_box_contains;
    Alcotest.test_case "box of_points" `Quick test_box_of_points;
    Alcotest.test_case "box sample inside" `Quick test_box_sample_inside;
    Alcotest.test_case "box invalid" `Quick test_box_invalid;
    Alcotest.test_case "grid within = brute force" `Quick
      test_grid_within_matches_bruteforce;
    Alcotest.test_case "grid nearest_other" `Quick test_grid_nearest_other;
    Alcotest.test_case "uniform min dist" `Quick test_uniform_min_dist;
    Alcotest.test_case "uniform too crowded" `Quick test_uniform_too_crowded;
    Alcotest.test_case "jittered grid" `Quick test_jittered_grid;
    Alcotest.test_case "line" `Quick test_line;
    Alcotest.test_case "two_lines structure" `Quick test_two_lines_structure;
    Alcotest.test_case "two_balls structure" `Quick test_two_balls_structure;
    Alcotest.test_case "star structure" `Quick test_star_structure;
    Alcotest.test_case "clusters" `Quick test_clusters;
    Alcotest.test_case "line with blob" `Quick test_line_with_blob;
    Alcotest.test_case "min pairwise = brute" `Quick
      test_min_pairwise_brute_agreement;
    QCheck_alcotest.to_alcotest prop_dist_symmetric;
    QCheck_alcotest.to_alcotest prop_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_linf_le_l2;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 53 |])
      prop_bernoulli_raw_bits ]
