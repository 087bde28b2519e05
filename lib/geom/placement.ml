(* Node placement generators.

   The paper assumes nodes live in the Euclidean plane with pairwise distance
   at least 1 (the near-field normalization of Section 4.2).  Every generator
   here maintains that invariant.  Besides generic deployments (uniform,
   jittered grid, line, clusters) this module builds the exact worst-case
   constructions used by the paper's lower bounds:

   - [two_lines]  : Theorem 6.1 / Figure 1  (f_prog >= Delta),
   - [two_balls]  : Theorem 8.1             (Decay needs Omega(Delta log 1/eps)),
   - [star]       : Remark 5.3              (f_ack >= Delta). *)

(* One grid-accelerated pass over a flat cell index (Grid_index.min_dist2):
   O(n) expected for the bounded-density point sets we generate.  The cell
   is the mean spacing of the bounding box. *)
let min_pairwise_dist_xy xs ys =
  let n = Float.Array.length xs in
  if n < 2 then Float.infinity
  else begin
    let lo a = Float.Array.fold_left Float.min Float.infinity a
    and hi a = Float.Array.fold_left Float.max Float.neg_infinity a in
    let w = hi xs -. lo xs and h = hi ys -. lo ys in
    let cell =
      Float.max 1e-9
        (sqrt ((w *. w) +. (h *. h)) /. Float.max 1. (sqrt (float_of_int n)))
    in
    sqrt (Grid_index.min_dist2 (Grid_index.of_columns ~cell xs ys))
  end

let min_pairwise_dist pts =
  min_pairwise_dist_xy
    (Float.Array.map_from_array Point.x pts)
    (Float.Array.map_from_array Point.y pts)

let max_pairwise_dist pts =
  let n = Array.length pts in
  let best = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Point.dist pts.(i) pts.(j) in
      if d > !best then best := d
    done
  done;
  !best

let translate offset pts = Array.map (Point.add offset) pts

let rescale k pts = Array.map (Point.scale k) pts

exception Placement_failed of string

(* Dart throwing with a spatial grid for the min-distance check.  With cell
   size = min_dist, a conflicting earlier point must sit in one of the 3x3
   cells around the candidate. *)
let uniform rng ~n ~box ~min_dist =
  if min_dist <= 0. then invalid_arg "Placement.uniform: min_dist <= 0";
  let cell = min_dist in
  let buckets : (int * int, Point.t list) Hashtbl.t = Hashtbl.create (4 * n) in
  let key (p : Point.t) =
    (int_of_float (Float.floor (p.x /. cell)),
     int_of_float (Float.floor (p.y /. cell)))
  in
  let ok p =
    let kx, ky = key p in
    let clear = ref true in
    for dx = -1 to 1 do
      for dy = -1 to 1 do
        match Hashtbl.find_opt buckets (kx + dx, ky + dy) with
        | None -> ()
        | Some others ->
          List.iter
            (fun q -> if Point.dist q p < min_dist then clear := false)
            others
      done
    done;
    !clear
  in
  let pts = Array.make n Point.origin in
  let attempts_per_point = 200 in
  for i = 0 to n - 1 do
    let rec try_once k =
      if k = 0 then
        raise
          (Placement_failed
             (Fmt.str "uniform: could not place point %d of %d in %a \
                       with min_dist %.3g" (i + 1) n Box.pp box min_dist));
      let p = Box.sample rng box in
      if ok p then p else try_once (k - 1)
    in
    let p = try_once attempts_per_point in
    pts.(i) <- p;
    let k = key p in
    let prev = Option.value (Hashtbl.find_opt buckets k) ~default:[] in
    Hashtbl.replace buckets k (p :: prev)
  done;
  pts

(* Streaming dart throwing for the million-node path: accepted positions
   go straight to [set] (a column writer — Phys.Soa at the call sites),
   so no [Point.t] is ever boxed and no point array materialized.  The
   generator keeps its own copy of the accepted coordinates in two float
   columns, so probes read them unboxed (the [x]/[y] accessors are not
   called).  The min-distance grid is an int-chain over a single-int cell
   key: one [next] slot per node plus an open-addressed key -> chain-head
   table of at least twice as many slots as nodes, O(n) flat memory
   however large the box.  Distinct cells may share a key (the packing is
   a hash, not an injection); a collision only merges two chains, adding
   distance checks, never admitting a violating point.  Probes allocate
   nothing: the candidate is written into slot [i] of the columns, the
   helpers take only ints, and each draw is [Rng.float]'s computed from
   [Rng.bits53], so no float is boxed on return.  The invariant is
   guaranteed by construction, so [Sinr.create_soa ~check:false] can skip
   its O(n) validation pass. *)
let uniform_stream rng ~n ~box ~min_dist ~set ~x:_ ~y:_ =
  if min_dist <= 0. then invalid_arg "Placement.uniform_stream: min_dist <= 0";
  let cell = min_dist in
  let bits =
    let b = ref 4 in
    while 1 lsl !b < 2 * n do
      incr b
    done;
    !b
  in
  let mask = (1 lsl bits) - 1 in
  let keys = Array.make (mask + 1) 0 and heads = Array.make (mask + 1) (-1) in
  let next = Array.make (max 1 n) (-1) in
  let xs = Float.Array.make (max 1 n) 0. and ys = Float.Array.make (max 1 n) 0. in
  let md2 = min_dist *. min_dist in
  (* The table slot of cell key [k]: its entry, or the empty slot where it
     goes (Fibonacci hashing, linear probing). *)
  let slot k =
    let s = ref ((k * 0x2545F4914F6CDD1D) lsr (63 - bits)) in
    while heads.(!s) >= 0 && keys.(!s) <> k do
      s := (!s + 1) land mask
    done;
    !s
  in
  (* The cell key of node [i]'s coordinates moved by (dx, dy) cells. *)
  let cell_key i dx dy =
    let px = Float.Array.unsafe_get xs i +. (float_of_int dx *. cell)
    and py = Float.Array.unsafe_get ys i +. (float_of_int dy *. cell) in
    let kx = int_of_float (Float.floor (px /. cell))
    and ky = int_of_float (Float.floor (py /. cell)) in
    (kx * 0x1fffff7) + ky
  in
  (* Whether candidate [i] keeps [min_dist] from every accepted point in
     the 3x3 cells around it. *)
  let clear i =
    let px = Float.Array.unsafe_get xs i and py = Float.Array.unsafe_get ys i in
    let ok = ref true in
    for dx = -1 to 1 do
      for dy = -1 to 1 do
        if !ok then begin
          let id = ref heads.(slot (cell_key i dx dy)) in
          while !id >= 0 do
            let ex = Float.Array.unsafe_get xs !id -. px
            and ey = Float.Array.unsafe_get ys !id -. py in
            if (ex *. ex) +. (ey *. ey) >= md2 then id := next.(!id)
            else begin
              ok := false;
              id := -1
            end
          done
        end
      done
    done;
    !ok
  in
  let w = Box.width box and h = Box.height box in
  let xmin = box.Box.xmin and ymin = box.Box.ymin in
  let attempts_per_point = 200 in
  for i = 0 to n - 1 do
    let k = ref attempts_per_point and placed = ref false in
    while not !placed do
      if !k = 0 then
        raise
          (Placement_failed
             (Fmt.str "uniform_stream: could not place point %d of %d in %a \
                       with min_dist %.3g" (i + 1) n Box.pp box min_dist));
      decr k;
      let px = xmin +. (float_of_int (Rng.bits53 rng) *. 0x1.p-53 *. w)
      and py = ymin +. (float_of_int (Rng.bits53 rng) *. 0x1.p-53 *. h) in
      Float.Array.unsafe_set xs i px;
      Float.Array.unsafe_set ys i py;
      placed := clear i
    done;
    set i ~x:(Float.Array.unsafe_get xs i) ~y:(Float.Array.unsafe_get ys i);
    let key = cell_key i 0 0 in
    let s = slot key in
    next.(i) <- heads.(s);
    keys.(s) <- key;
    heads.(s) <- i
  done

let jittered_grid rng ~nx ~ny ~spacing ~jitter =
  if spacing <= 0. then invalid_arg "Placement.jittered_grid: spacing <= 0";
  if jitter < 0. || 2. *. jitter >= spacing -. 1. then
    invalid_arg "Placement.jittered_grid: jitter too large for min distance 1";
  let pts = Array.make (nx * ny) Point.origin in
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 1 do
      let dx = Rng.float rng (2. *. jitter) -. jitter in
      let dy = Rng.float rng (2. *. jitter) -. jitter in
      pts.((ix * ny) + iy) <-
        Point.make ((float_of_int ix *. spacing) +. dx)
          ((float_of_int iy *. spacing) +. dy)
    done
  done;
  pts

let line ~n ~spacing =
  if spacing < 1. then invalid_arg "Placement.line: spacing < 1";
  Array.init n (fun i -> Point.make (float_of_int i *. spacing) 0.)

(* A long line with a dense blob at one end: the classic workload for
   sweeping diameter D and degree Delta independently (Table 2 bench). *)
let line_with_blob rng ~line_n ~spacing ~blob_n ~blob_radius =
  let backbone = line ~n:line_n ~spacing in
  let blob_box =
    Box.make ~xmin:(-.blob_radius) ~ymin:1.5 ~xmax:blob_radius
      ~ymax:(1.5 +. (2. *. blob_radius))
  in
  let blob = uniform rng ~n:blob_n ~box:blob_box ~min_dist:1. in
  Array.append backbone blob

let clusters rng ~k ~per_cluster ~cluster_radius ~centers_box =
  if cluster_radius < 1. then
    invalid_arg "Placement.clusters: cluster_radius < 1";
  let all = ref [] in
  let attempts = ref 0 in
  while List.length !all < k && !attempts < 1000 do
    incr attempts;
    let c = Box.sample rng centers_box in
    let far_enough =
      List.for_all
        (fun c' -> Point.dist c c' >= 4. *. cluster_radius)
        !all
    in
    if far_enough then all := c :: !all
  done;
  if List.length !all < k then
    raise (Placement_failed "clusters: could not separate cluster centers");
  let groups =
    List.map
      (fun (c : Point.t) ->
        let b =
          Box.make ~xmin:(c.x -. cluster_radius) ~ymin:(c.y -. cluster_radius)
            ~xmax:(c.x +. cluster_radius) ~ymax:(c.y +. cluster_radius)
        in
        uniform rng ~n:per_cluster ~box:b ~min_dist:1.)
      !all
  in
  Array.concat groups

(* ------------------------------------------------------------------ *)
(* Lower-bound constructions                                           *)
(* ------------------------------------------------------------------ *)

type two_lines = {
  points : Point.t array;
  senders : int array;   (* the V line: v_1 ... v_delta *)
  receivers : int array; (* the U line: u_i is the unique G_{1-eps} partner of v_i *)
  link_len : float;      (* distance d(v_i, u_i) = separation of the lines *)
}

(* Theorem 6.1 / Figure 1: two parallel lines of [delta] nodes each, spacing
   [spacing] (>= 1) along each line, the lines separated by [gap].  In the
   paper gap = R_{1-eps} = 10*delta so that each v_i has exactly one
   cross-line neighbor u_i in G_{1-eps}, and any second concurrent sender
   kills every cross-line reception. *)
let two_lines ~delta ~spacing ~gap =
  if delta < 1 then invalid_arg "Placement.two_lines: delta < 1";
  if spacing < 1. then invalid_arg "Placement.two_lines: spacing < 1";
  let v = Array.init delta (fun i -> Point.make (float_of_int i *. spacing) 0.) in
  let u =
    Array.init delta (fun i -> Point.make (float_of_int i *. spacing) gap)
  in
  { points = Array.append v u;
    senders = Array.init delta Fun.id;
    receivers = Array.init delta (fun i -> delta + i);
    link_len = gap }

type two_balls = {
  points : Point.t array;
  ball1 : int array; (* the 2-node ball where progress is starved *)
  ball2 : int array; (* the delta-node interfering ball *)
}

(* Theorem 8.1: ball B1 with 2 nodes and ball B2 with [delta] nodes, ball
   radius [radius] (paper: R/4), centers at distance [center_dist]
   (paper: 2R).  Decay's probability sweep lets B2 drown B1 exactly when
   B1's nodes are likely to transmit.  B1's two nodes sit at opposite ends
   of their ball (distance 2*radius = R/2) so that, as in the paper, every
   relevant distance is Theta(R) and the cross-ball interference actually
   competes with the intra-B1 signal. *)
let two_balls rng ~delta ~radius ~center_dist =
  if delta < 1 then invalid_arg "Placement.two_balls: delta < 1";
  if center_dist <= 2. *. radius then
    invalid_arg "Placement.two_balls: balls overlap";
  if 2. *. radius < 1. then
    invalid_arg "Placement.two_balls: radius too small for min distance 1";
  let c2 = Point.make center_dist 0. in
  let ball_box (c : Point.t) =
    Box.make ~xmin:(c.x -. radius) ~ymin:(c.y -. radius) ~xmax:(c.x +. radius)
      ~ymax:(c.y +. radius)
  in
  let sample_ball c n =
    (* Rejection-sample the box down to the disc, keeping min distance 1. *)
    let pts = ref [] in
    let tries = ref 0 in
    while List.length !pts < n && !tries < 20000 do
      incr tries;
      let p = Box.sample rng (ball_box c) in
      if Point.dist p c <= radius
         && List.for_all (fun q -> Point.dist p q >= 1.) !pts
      then pts := p :: !pts
    done;
    if List.length !pts < n then
      raise (Placement_failed "two_balls: ball too small for node count");
    Array.of_list !pts
  in
  let b1 = [| Point.make (-.radius) 0.; Point.make radius 0. |] in
  let b2 = sample_ball c2 delta in
  { points = Array.append b1 b2;
    ball1 = [| 0; 1 |];
    ball2 = Array.init delta (fun i -> 2 + i) }

type star = {
  points : Point.t array;
  hub : int;
  leaves : int array;
}

(* Remark 5.3: a hub with [delta] leaves inside radius [radius]; when every
   leaf broadcasts, the hub can decode at most one message per slot, so any
   correct ack implementation needs >= delta slots. *)
let star rng ~delta ~radius =
  if delta < 1 then invalid_arg "Placement.star: delta < 1";
  if radius < 2. then invalid_arg "Placement.star: radius too small";
  let leaves = Array.make delta Point.origin in
  let placed = ref [] in
  let tries = ref 0 in
  let i = ref 0 in
  while !i < delta && !tries < 50000 do
    incr tries;
    let theta = Rng.float rng (2. *. Float.pi) in
    let r = 1.5 +. Rng.float rng (radius -. 1.5) in
    let p = Point.on_circle ~center:Point.origin ~r ~theta in
    if List.for_all (fun q -> Point.dist p q >= 1.) !placed then begin
      leaves.(!i) <- p;
      placed := p :: !placed;
      incr i
    end
  done;
  if !i < delta then raise (Placement_failed "star: radius too small for delta");
  { points = Array.append [| Point.origin |] leaves;
    hub = 0;
    leaves = Array.init delta (fun j -> 1 + j) }
