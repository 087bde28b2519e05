(* Structure-of-arrays node state: flat unboxed position columns.

   The record-based [Point.t array] view costs a pointer chase plus two
   boxed-float loads per coordinate access; at n = 10^5..10^6 nodes that
   layout dominates cache traffic in the resolution inner loops and makes
   streaming placement impossible (every candidate boxes a point).  This
   module stores the deployment as two [Float.Array.t] columns (unboxed,
   contiguous) that the physics kernels index directly.

   Bit-identity contract: [dist]/[dist2] evaluate exactly the float
   expressions of [Point.dist]/[Point.dist2] on the same coordinates, so a
   kernel switched from the record view to the column view produces the
   same bits.  Transmit power needs no column under the paper's
   uniform-power assumption (Section 4.2): it stays the single
   [Config.power] scalar.

   Columns are written once (during placement streaming or [of_points])
   and then frozen for the life of the simulator, like the record view
   they replace. *)

open Sinr_geom

type t = { n : int; xs : Float.Array.t; ys : Float.Array.t }

let create ~n =
  if n <= 0 then invalid_arg "Soa.create: n must be positive";
  { n; xs = Float.Array.make n 0.; ys = Float.Array.make n 0. }

let length t = t.n

let set t i ~x ~y =
  Float.Array.set t.xs i x;
  Float.Array.set t.ys i y

let x t i = Float.Array.get t.xs i
let y t i = Float.Array.get t.ys i

let xs t = t.xs
let ys t = t.ys

let get t i = Point.make (Float.Array.get t.xs i) (Float.Array.get t.ys i)

let of_points pts =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Soa.of_points: no points";
  let t = create ~n in
  for i = 0 to n - 1 do
    let p = pts.(i) in
    Float.Array.unsafe_set t.xs i (Point.x p);
    Float.Array.unsafe_set t.ys i (Point.y p)
  done;
  t

let to_points t = Array.init t.n (get t)

(* Same float expressions as [Point.dist2]/[Point.dist] — the column view
   must be bit-identical to the record view. *)
let dist2 t i j =
  let dx = Float.Array.unsafe_get t.xs i -. Float.Array.unsafe_get t.xs j
  and dy = Float.Array.unsafe_get t.ys i -. Float.Array.unsafe_get t.ys j in
  (dx *. dx) +. (dy *. dy)

let dist t i j = sqrt (dist2 t i j)

let dist2_to t i ~x ~y =
  let dx = Float.Array.unsafe_get t.xs i -. x
  and dy = Float.Array.unsafe_get t.ys i -. y in
  (dx *. dx) +. (dy *. dy)

let dist_to t i ~x ~y = sqrt (dist2_to t i ~x ~y)

let iter f t =
  for i = 0 to t.n - 1 do
    f i (Float.Array.unsafe_get t.xs i) (Float.Array.unsafe_get t.ys i)
  done

(* Column bounds without materializing a box of boxed points. *)
let bounds t =
  let xmin = ref Float.infinity and xmax = ref Float.neg_infinity in
  let ymin = ref Float.infinity and ymax = ref Float.neg_infinity in
  for i = 0 to t.n - 1 do
    let x = Float.Array.unsafe_get t.xs i
    and y = Float.Array.unsafe_get t.ys i in
    if x < !xmin then xmin := x;
    if x > !xmax then xmax := x;
    if y < !ymin then ymin := y;
    if y > !ymax then ymax := y
  done;
  (!xmin, !ymin, !xmax, !ymax)
