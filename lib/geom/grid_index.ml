(* Flat cell index over a fixed point set.

   Interference in the SINR formula is a global sum, but neighbourhood
   queries (who is within distance r of p?) dominate graph construction,
   the local parameters Delta and Lambda and the physics layer's
   neighbour lists.  Bucketing points into square cells makes a range
   query cost the members of the cells its window overlaps rather than n.

   Layout: a dense row-major grid over the points' bounding box.  Nodes
   are counting-sorted by cell into one int array ([ids], ascending within
   a cell) with a cell-offset array ([start]), and their coordinates are
   copied into the same order ([cx], [cy]).  The cells of one window row
   are adjacent in row-major order, so each window row is one contiguous
   slice of the three arrays: a query reads memory front to back and
   allocates nothing.  The requested cell side is doubled until the grid
   has at most [max_cells n] cells, so spread-out layouts (two far-apart
   lines, a star with a huge gap) stay O(n) cells; a larger cell only
   widens windows, never changes what a query reports. *)

type t = {
  n : int;
  xs : Float.Array.t;  (* by node id *)
  ys : Float.Array.t;
  cell : float;        (* side actually used, >= the requested one *)
  x0 : float;          (* grid origin: the bounding box's min corner *)
  y0 : float;
  ncx : int;
  ncy : int;
  start : int array;   (* cell c holds ids.(start.(c) .. start.(c+1)-1) *)
  ids : int array;     (* node ids in cell order *)
  cx : Float.Array.t;  (* cx.(k) = xs.(ids.(k)) *)
  cy : Float.Array.t;
  slack : float;
      (* window pad: relative 1e-9 of the coordinates' magnitude, which
         absorbs any rounding in the cell arithmetic (a few ulps) *)
  diag : float;        (* bounding-box diagonal: nearest_other's stop *)
}

let max_cells n = max 64 (4 * n)

let of_columns ~cell xs ys =
  if not (cell > 0.) then invalid_arg "Grid_index.create: cell must be positive";
  let n = Float.Array.length xs in
  if Float.Array.length ys <> n then
    invalid_arg "Grid_index.of_columns: column lengths differ";
  let xmin = ref Float.infinity and xmax = ref Float.neg_infinity in
  let ymin = ref Float.infinity and ymax = ref Float.neg_infinity in
  for i = 0 to n - 1 do
    let x = Float.Array.unsafe_get xs i and y = Float.Array.unsafe_get ys i in
    if x < !xmin then xmin := x;
    if x > !xmax then xmax := x;
    if y < !ymin then ymin := y;
    if y > !ymax then ymax := y
  done;
  let x0, y0, spanx, spany =
    if n = 0 then (0., 0., 0., 0.)
    else (!xmin, !ymin, !xmax -. !xmin, !ymax -. !ymin)
  in
  let cell = ref cell in
  let dim span = Float.floor (span /. !cell) +. 1. in
  while dim spanx *. dim spany > float_of_int (max_cells n) do
    cell := !cell *. 2.
  done;
  let cell = !cell in
  let ncx = int_of_float (dim spanx) and ncy = int_of_float (dim spany) in
  let clamp k nc = if k < 0 then 0 else if k >= nc then nc - 1 else k in
  let cell_of i =
    let kx = clamp (int_of_float ((Float.Array.unsafe_get xs i -. x0) /. cell)) ncx
    and ky = clamp (int_of_float ((Float.Array.unsafe_get ys i -. y0) /. cell)) ncy in
    (ky * ncx) + kx
  in
  let ncells = ncx * ncy in
  let key = Array.make n 0 in
  let start = Array.make (ncells + 1) 0 in
  for i = 0 to n - 1 do
    let c = cell_of i in
    key.(i) <- c;
    start.(c + 1) <- start.(c + 1) + 1
  done;
  for c = 1 to ncells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  (* Stable fill (ascending ids within a cell), reusing [key] as each
     node's slot. *)
  let fill = Array.sub start 0 ncells in
  let ids = Array.make n 0 in
  let cx = Float.Array.create n and cy = Float.Array.create n in
  for i = 0 to n - 1 do
    let c = key.(i) in
    let k = fill.(c) in
    fill.(c) <- k + 1;
    ids.(k) <- i;
    Float.Array.unsafe_set cx k (Float.Array.unsafe_get xs i);
    Float.Array.unsafe_set cy k (Float.Array.unsafe_get ys i)
  done;
  let mag =
    if n = 0 then 0.
    else
      Float.max (Float.max (Float.abs !xmin) (Float.abs !xmax))
        (Float.max (Float.abs !ymin) (Float.abs !ymax))
  in
  { n; xs; ys; cell; x0; y0; ncx; ncy; start; ids; cx; cy;
    slack = 1e-9 *. (1. +. mag);
    diag = sqrt ((spanx *. spanx) +. (spany *. spany)) }

let create ~cell points =
  of_columns ~cell
    (Float.Array.map_from_array Point.x points)
    (Float.Array.map_from_array Point.y points)

let cell_size t = t.cell

let length t = t.n

(* First and last cell along one axis whose span meets [a, b], clamped
   to the grid; first > last when the interval misses it. *)
let[@inline] first_cell v0 cell nc a =
  let f = (a -. v0) /. cell in
  if f > 0. then if f < float_of_int nc then int_of_float f else nc else 0

let[@inline] last_cell v0 cell nc b =
  let f = (b -. v0) /. cell in
  if f < float_of_int nc then if f >= 0. then int_of_float f else -1
  else nc - 1

(* Every index whose point lies within [r] of point [i] (inclusive:
   [Point.dist2]'s expression against r^2), each once, in cell order:
   the ids written to [ids] and their squared distances to [d2] from 0,
   the count returned.  Handing the distances back spares the caller a
   by-id read of each hit's coordinates, which at large n is a cache miss
   per hit.  The centre is read here, not passed in: a float argument
   would be boxed per call. *)
let within_node t i ~r ids d2 =
  if Array.length ids < t.n || Float.Array.length d2 < t.n then
    invalid_arg "Grid_index.within_node: short buffer";
  if not (r >= 0.) then 0
  else begin
    let px = Float.Array.get t.xs i and py = Float.Array.get t.ys i in
    let w = r +. t.slack +. (1e-9 *. r) and r2 = r *. r in
    let kx0 = first_cell t.x0 t.cell t.ncx (px -. w)
    and kx1 = last_cell t.x0 t.cell t.ncx (px +. w)
    and ky0 = first_cell t.y0 t.cell t.ncy (py -. w)
    and ky1 = last_cell t.y0 t.cell t.ncy (py +. w) in
    let count = ref 0 in
    let cx = t.cx and cy = t.cy and order = t.ids and start = t.start in
    for ky = ky0 to ky1 do
      let row = ky * t.ncx in
      for k = Array.unsafe_get start (row + kx0)
          to Array.unsafe_get start (row + kx1 + 1) - 1 do
        let dx = Float.Array.unsafe_get cx k -. px
        and dy = Float.Array.unsafe_get cy k -. py in
        let dd = (dx *. dx) +. (dy *. dy) in
        if dd <= r2 then begin
          Array.unsafe_set ids !count (Array.unsafe_get order k);
          Float.Array.unsafe_set d2 !count dd;
          incr count
        end
      done
    done;
    !count
  end

let iter_cell_order t f =
  for k = 0 to t.n - 1 do
    f (Array.unsafe_get t.ids k)
  done

let iter_within t ~center:(p : Point.t) ~r f =
  if r >= 0. then begin
    let w = r +. t.slack +. (1e-9 *. r) and r2 = r *. r in
    let kx0 = first_cell t.x0 t.cell t.ncx (p.x -. w)
    and kx1 = last_cell t.x0 t.cell t.ncx (p.x +. w)
    and ky0 = first_cell t.y0 t.cell t.ncy (p.y -. w)
    and ky1 = last_cell t.y0 t.cell t.ncy (p.y +. w) in
    for ky = ky0 to ky1 do
      let row = ky * t.ncx in
      for k = t.start.(row + kx0) to t.start.(row + kx1 + 1) - 1 do
        let dx = Float.Array.unsafe_get t.cx k -. p.x
        and dy = Float.Array.unsafe_get t.cy k -. p.y in
        if (dx *. dx) +. (dy *. dy) <= r2 then f t.ids.(k)
      done
    done
  end

let within t ~center ~r =
  let acc = ref [] in
  iter_within t ~center ~r (fun i -> acc := i :: !acc);
  List.rev !acc

(* The nearest other point to node [i] among the cells of the window of
   radius [w] around it, improving on ([best], [best_d2]); ties go to the
   smaller index.  Returns the best index and updates [best_d2] in
   place. *)
let scan_nearest t i ~w ~best ~best_d2 =
  let px = Float.Array.get t.xs i and py = Float.Array.get t.ys i in
  let w = w +. t.slack +. (1e-9 *. w) in
  let kx0 = first_cell t.x0 t.cell t.ncx (px -. w)
  and kx1 = last_cell t.x0 t.cell t.ncx (px +. w)
  and ky0 = first_cell t.y0 t.cell t.ncy (py -. w)
  and ky1 = last_cell t.y0 t.cell t.ncy (py +. w) in
  let best = ref best in
  for ky = ky0 to ky1 do
    let row = ky * t.ncx in
    for k = t.start.(row + kx0) to t.start.(row + kx1 + 1) - 1 do
      let j = Array.unsafe_get t.ids k in
      if j <> i then begin
        let dx = Float.Array.unsafe_get t.cx k -. px
        and dy = Float.Array.unsafe_get t.cy k -. py in
        let d2 = (dx *. dx) +. (dy *. dy) in
        if d2 < !best_d2 || (d2 = !best_d2 && j < !best) then begin
          best := j;
          best_d2 := d2
        end
      end
    done
  done;
  !best

(* Node [i]'s nearest other point: the window widens ring by ring until
   the best candidate provably beats everything outside it (its squared
   distance is within the window's radius squared).  The stop bound is the
   bounding-box diagonal, taken once at construction.  Returns the index
   (-1 when there is none) and leaves its squared distance in [best_d2]. *)
let nearest t i best_d2 =
  let rec search best r =
    let best = scan_nearest t i ~w:r ~best ~best_d2 in
    if best >= 0 && !best_d2 <= r *. r then best
    else if r > 4. *. t.diag then -1
    else search best (2. *. r)
  in
  if t.n <= 1 then -1 else search (-1) t.cell

let nearest_other t i =
  let best_d2 = ref Float.infinity in
  let j = nearest t i best_d2 in
  if j < 0 then None else Some (j, sqrt !best_d2)

(* Smallest squared distance over all pairs.  One pass scans each node's
   window of radius [cell]: if the best pair found lies within [cell], no
   closer pair can hide outside the windows, so it is the minimum.
   Otherwise every pair is farther apart than a cell, and each node's ring
   search settles it. *)
let min_dist2 t =
  let best_d2 = ref Float.infinity in
  for i = 0 to t.n - 1 do
    ignore (scan_nearest t i ~w:t.cell ~best:(-1) ~best_d2)
  done;
  if !best_d2 <= t.cell *. t.cell then !best_d2
  else begin
    for i = 0 to t.n - 1 do
      let d2 = ref Float.infinity in
      if nearest t i d2 >= 0 && !d2 < !best_d2 then best_d2 := !d2
    done;
    !best_d2
  end

(* Ascending sort of [a.(0 .. len-1)]: insertion sort for the short rows
   a bounded-density deployment gives, the library sort past that. *)
let sort_ids a len =
  if len <= 32 then
    for i = 1 to len - 1 do
      let v = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get a !j > v do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) v
    done
  else begin
    let s = Array.sub a 0 len in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 len
  end
