(* Sparse cell-aggregated slot resolution for large n.

   The exact kernels walk every (listener, sender) pair: O(s * n) per slot,
   hopeless at n = 10^5..10^6.  This kernel works from the senders out:
   O(s log s) to bucket the s senders, then the listeners in decoding
   range of some sender, then per coarse cell holding a listener that can
   decode one near/far split.  Listeners no sender reaches are never
   visited, and nothing n x n is materialized.

   Grids over the frozen [Soa] columns: a fine grid (side ~R/2, doubled
   until it has O(n) cells even for spreads like the two-lines
   construction) indexes the nodes once (a CSR: node ids counting-sorted
   by fine cell) and buckets each slot's senders (one sort by fine key);
   a coarse grid (4x4 fine cells) groups listeners, which share one split.

   Far/near split: a sender cell whose center is at least thr = max(Dmin,
   R + h) from the listener cell's center contributes count *
   P/d(centers)^alpha; closer senders are scored exactly.  With h the sum
   of the cells' half-diagonals and Dmin = h / ((1+eps)^(1/alpha) - 1) the
   far sum's relative error is at most eps (each true distance is within
   h of the center distance).  The interference is the far sum (far cells
   in cell order) plus the near powers (sorted order); the best sender is
   always exact, so only interference near the threshold is approximate.

   Exact silence: a listener decodes only if its strongest sender reaches
   beta * N alone (the test's right-hand side is beta * (N + total -
   best), and total >= best since the sum only adds non-negative terms).
   P / d^alpha takes a few correctly rounded operations (and libm's pow,
   within an ulp, for alpha <> 3), so clearing beta * N forces d <= R (1 +
   c u), some 10^6 times inside the padded bound R' = R + 1e-9 (1 + R).
   So each sender, in sorted order, walks the fine cells within R' of it
   and records, for every unmarked listener with d^2 <= R'^2, the loudest
   power and its sender (the first in sorted order on ties, as a scan of
   the near senders picks).  A listener that is not reached, or whose
   loudest is below beta * N, is decided without a sum; otherwise its
   loudest sender lies within R', hence in a near cell: the best sender.

   Lazy far sums.  Rounding is monotone (a <= b gives fl(a + c) <= fl(b +
   c)), so the total, the near powers added in order to the far sum F,
   lies between the same additions started from 0 and from any F' >= F,
   and beta * ((N + total) - best) is monotone in the total.  If the test
   passes from F' it passes; if it fails from 0 it fails; only a listener
   in between needs F, computed once per coarse cell (cell order, the
   expression above), with its stored near powers re-added in order.  F'
   bounds each far cell by the power at the lower edge of its band of
   squared center distance (thr^2, 4 thr^2, 16 thr^2, 64 thr^2): with
   alpha = 3 sqrt, multiply and divide are correctly rounded, so a term
   never exceeds its band's bound; libm's pow is within an ulp, so for
   other alpha a term may exceed it by a few u.  Summing k terms in
   another order moves a total by at most ~k u.  The margin 1 + 1e-9
   covers both up to 10^6 occupied sender cells; past that F' is infinite.

   Per-slot state lives in domain-local scratch (busy flag, grow-only
   arrays), so Reliability's Pool workers can resolve concurrently on one
   instance; per-listener state (the walk's record index, the record's
   listener) lives in the caller's [sender] and [receivers] buffers.
   Determinism: the sort key is (fine cell, input position), so every
   float is a pure function of the input, whatever the domain count. *)

open Sinr_obs

let m_slots = Metrics.counter "phys.sparse.slots"
let m_active = Metrics.counter "phys.sparse.active_cells"
let m_near = Metrics.counter "phys.sparse.near_links"
let m_far = Metrics.counter "phys.sparse.far_cell_pairs"
let m_far_exact = Metrics.counter "phys.sparse.far_exact"
let m_silent = Metrics.counter "phys.sparse.silent_listeners"

(* The resolution-wide link counter [Sinr] also feeds: this kernel adds
   the links it actually scores (near links plus far cell pairs), not
   senders x nodes. *)
let m_links = Metrics.counter "phys.resolve.links"

type t = {
  power : float;
  half_alpha : float;
  alpha3 : bool;  (* d^alpha = d2 * sqrt d2 for the default alpha = 3 *)
  beta : float;
  noise : float;
  eps : float;
  x0 : float;
  y0 : float;
  cf : float;  (* fine cell side *)
  ncx : int;
  ncy : int;
  cc : float;  (* coarse cell side = 4 * cf *)
  mcx : int;
  mcells : int;
  silence_r2 : float;
      (* squared listener-to-sender distance beyond which a lone sender
         cannot reach beta * N (the padded range bound, see [resolve]) *)
  reach : float;      (* R', the senders' walk radius *)
  threshold2 : float; (* squared center distance of the far/near split *)
  band : Float.Array.t;
      (* far-term bounds: P / (thr^2 4^b)^(alpha/2), b = 0 .. 3 *)
  band_rows : int array;  (* thr 2^b / cf, rows: [row_edge]'s first guess *)
  soa : Soa.t;
  fstart : int array;   (* fine cell -> offset into fmembers, len ncx*ncy+1 *)
  fmembers : int array; (* node ids grouped by fine cell *)
}

let coarse_k = 4

(* d^alpha from d^2, avoiding libm pow on the default alpha = 3. *)
let[@inline] pow_alpha t d2 =
  if t.alpha3 then d2 *. sqrt d2 else d2 ** t.half_alpha

(* The fine cell index of coordinate [c] along an axis from [lo], moved
   [pad] cells and clamped to [0, n-1]: with [pad] 0, the expression that
   assigns nodes to fine cells. *)
let[@inline] fine_bound c lo cf n ~pad =
  let k = int_of_float ((c -. lo) /. cf) + pad in
  if k < 0 then 0 else if k > n - 1 then n - 1 else k

let[@inline] fine_key t x y =
  (fine_bound y t.y0 t.cf t.ncy ~pad:0 * t.ncx) + fine_bound x t.x0 t.cf t.ncx ~pad:0

let create (config : Config.t) soa ~eps =
  if eps <= 0. || eps >= 1. then invalid_arg "Sparse.create: eps not in (0, 1)";
  let n = Soa.length soa in
  let alpha = config.Config.alpha in
  let r = Config.range config in
  let xmin, ymin, xmax, ymax = Soa.bounds soa in
  let spanx = xmax -. xmin and spany = ymax -. ymin in
  (* Fine cell ~R/2, doubled until the dense grid stays O(n) cells even
     for spread-out layouts (two-lines with a huge gap, say). *)
  let max_cells = max 4096 (8 * n) in
  let cf = ref (Float.max 1. (r /. 2.)) in
  let dims () =
    ( int_of_float (spanx /. !cf) + 1,
      int_of_float (spany /. !cf) + 1 )
  in
  let ncx = ref 0 and ncy = ref 0 in
  let cx, cy = dims () in
  ncx := cx;
  ncy := cy;
  while !ncx * !ncy > max_cells do
    cf := !cf *. 2.;
    let cx, cy = dims () in
    ncx := cx;
    ncy := cy
  done;
  let cf = !cf and ncx = !ncx and ncy = !ncy in
  let cc = float_of_int coarse_k *. cf in
  let mcx = (ncx + coarse_k - 1) / coarse_k in
  let mcy = (ncy + coarse_k - 1) / coarse_k in
  let half_diag side = side *. sqrt 2. /. 2. in
  let h = half_diag cf +. half_diag cc in
  let denom = ((1. +. eps) ** (1. /. alpha)) -. 1. in
  let dmin = h /. denom in
  let threshold = Float.max dmin (r +. h) +. 1e-9 in
  let reach = r +. (1e-9 *. (1. +. r)) in
  let base =
    { power = config.Config.power;
      half_alpha = alpha /. 2.;
      alpha3 = alpha = 3.;
      beta = config.Config.beta;
      noise = config.Config.noise;
      eps;
      x0 = xmin;
      y0 = ymin;
      cf;
      ncx;
      ncy;
      cc;
      mcx;
      mcells = mcx * mcy;
      silence_r2 = reach *. reach;
      reach;
      threshold2 = threshold *. threshold;
      band = Float.Array.make 4 0.;
      band_rows = Array.make 4 0;
      soa;
      fstart = Array.make ((ncx * ncy) + 1) 0;
      fmembers = Array.make n 0 }
  in
  for b = 0 to 3 do
    let lo = base.threshold2 *. float_of_int (1 lsl (2 * b)) in
    Float.Array.set base.band b (base.power /. pow_alpha base lo);
    base.band_rows.(b) <- int_of_float (Float.min (sqrt lo /. cf) (float_of_int ncy))
  done;
  (* Counting sort of the nodes into their fine cells. *)
  let xs = Soa.xs soa and ys = Soa.ys soa in
  let key i = fine_key base (Float.Array.get xs i) (Float.Array.get ys i) in
  let fstart = base.fstart in
  for i = 0 to n - 1 do
    let f = key i in
    fstart.(f + 1) <- fstart.(f + 1) + 1
  done;
  for f = 1 to ncx * ncy do
    fstart.(f) <- fstart.(f) + fstart.(f - 1)
  done;
  let fill = Array.sub fstart 0 (ncx * ncy) in
  for i = 0 to n - 1 do
    let f = key i in
    let m = fill.(f) in
    base.fmembers.(m) <- i;
    fill.(f) <- m + 1
  done;
  base

let eps t = t.eps
let fine_cells t = t.ncx * t.ncy
let coarse_cells t = t.mcells
let far_threshold t = sqrt t.threshold2

(* ------------------------------------------------------------------ *)
(* Per-domain slot scratch                                             *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable cell_beg : int array;     (* occupied fine cell -> first index in
                                       the sorted order; then nsend *)
  mutable rowc : int array;         (* fine row r -> first cell in row >= r *)
  mutable cell_cnt : int array;     (* -> sender count *)
  mutable cell_cx : float array;    (* -> cell center *)
  mutable cell_cy : float array;
  mutable combo : int array;        (* sort keys (fine cell, input position) *)
  mutable sid : int array;          (* sorted position -> sender id *)
  mutable sx : Float.Array.t;       (* -> sender position *)
  mutable sy : Float.Array.t;
  mutable near : int array;         (* one coarse cell's near senders *)
  mutable npw : Float.Array.t;      (* one listener's near powers *)
  mutable lbest : int array;        (* walk record -> loudest sender ... *)
  mutable lpw : Float.Array.t;      (* -> ... and its power *)
  mutable llink : int array;
      (* -> the listener's coarse cell, then the next record of that
         cell or -1 *)
  mutable nrec : int;               (* walk records in use *)
  mutable ghead : int array;        (* coarse cell -> first record ... *)
  mutable gstamp : int array;       (* ... valid when stamped this slot *)
  mutable groups : int array;       (* coarse cells holding a record *)
  mutable stamp : int;
  bands : int array;                (* far senders per distance band *)
  far : Float.Array.t;              (* [| far bound; exact far sum |] *)
  mutable exact_sums : int;         (* exact far sums this slot *)
  mutable far_terms : int;          (* their terms *)
  mutable sort_tmp : int array;     (* radix-sort buffer *)
  sort_cnt : int array;             (* radix-sort digit counts, 257 *)
  mutable busy : bool;
}

let fresh_scratch () =
  { cell_beg = [||];
    rowc = [||];
    cell_cnt = [||];
    cell_cx = [||];
    cell_cy = [||];
    combo = [||];
    sid = [||];
    sx = Float.Array.create 0;
    sy = Float.Array.create 0;
    near = [||];
    npw = Float.Array.create 0;
    lbest = [||];
    lpw = Float.Array.create 0;
    llink = [||];
    nrec = 0;
    ghead = [||];
    gstamp = [||];
    groups = [||];
    stamp = 0;
    bands = Array.make 4 0;
    far = Float.Array.make 2 0.;
    exact_sums = 0;
    far_terms = 0;
    sort_tmp = [||];
    sort_cnt = Array.make 257 0;
    busy = false }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* The domain's scratch, sized for [cells] senders and [mcells] coarse
   cells; a fresh one when a resolution already holds it.  No closure:
   [release] ends the hold. *)
let acquire ~cells ~mcells =
  let sc = Domain.DLS.get scratch_key in
  let sc = if sc.busy then fresh_scratch () else sc in
  sc.busy <- true;
  if Array.length sc.cell_cnt < cells then begin
    sc.cell_beg <- Array.make (cells + 1) 0;
    sc.cell_cnt <- Array.make cells 0;
    sc.cell_cx <- Array.make cells 0.;
    sc.cell_cy <- Array.make cells 0.;
    sc.combo <- Array.make cells 0;
    sc.sid <- Array.make cells 0;
    sc.sx <- Float.Array.make cells 0.;
    sc.sy <- Float.Array.make cells 0.;
    sc.near <- Array.make cells 0;
    sc.npw <- Float.Array.make cells 0.
  end;
  (* Fresh stamp arrays start zeroed; the running stamp is always >= 1,
     so grown entries can never read as stamped. *)
  if Array.length sc.gstamp < mcells then begin
    sc.ghead <- Array.make mcells 0;
    sc.gstamp <- Array.make mcells 0;
    sc.groups <- Array.make mcells 0
  end;
  sc

let release sc = sc.busy <- false

(* Room for walk record [k]: the record columns grow by doubling. *)
let grow_records sc k =
  if k >= Array.length sc.lbest then begin
    let m = max 256 (2 * k) in
    let grow a = Array.append a (Array.make (m - Array.length a) 0) in
    sc.lbest <- grow sc.lbest;
    sc.llink <- grow sc.llink;
    sc.lpw <- Float.Array.append sc.lpw (Float.Array.make (m - Float.Array.length sc.lpw) 0.)
  end

(* ------------------------------------------------------------------ *)
(* Slot resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Sort [a.(0 .. k-1)], non-negative ints at most [top], ascending in
   place: an LSD radix sort on 8-bit digits, O(k) per pass, as many passes
   as [top] has bytes, and no allocation once [sort_tmp] has grown. *)
let radix_sort sc a k ~top =
  if k > 1 then begin
    if Array.length sc.sort_tmp < k then
      sc.sort_tmp <- Array.make (max k (2 * Array.length sc.sort_tmp)) 0;
    let cnt = sc.sort_cnt in
    let src = ref a and dst = ref sc.sort_tmp in
    let shift = ref 0 in
    while top lsr !shift > 0 do
      let a = !src and b = !dst and sh = !shift in
      Array.fill cnt 0 257 0;
      for i = 0 to k - 1 do
        let d = (Array.unsafe_get a i lsr sh) land 255 in
        cnt.(d + 1) <- cnt.(d + 1) + 1
      done;
      for d = 1 to 256 do
        cnt.(d) <- cnt.(d) + cnt.(d - 1)
      done;
      for i = 0 to k - 1 do
        let v = Array.unsafe_get a i in
        let d = (v lsr sh) land 255 in
        b.(cnt.(d)) <- v;
        cnt.(d) <- cnt.(d) + 1
      done;
      src := b;
      dst := a;
      shift := sh + 8
    done;
    if !src != a then Array.blit !src 0 a 0 k
  end

(* Bucket the slot's senders by fine cell: sort keys (cell, position) so
   grouping is one linear walk and the within-cell order is the input
   order (deterministic accumulation).  The sorted senders' ids and
   positions are copied into the scratch columns [sid], [sx] and [sy], so
   the per-listener loops read them contiguously, and [rowc] indexes the
   occupied cells by fine row.  Returns the number of occupied cells. *)
let bucket t sc ~ids ~nsend =
  let stride =
    let s = ref 1 in
    while !s < nsend do
      s := !s * 2
    done;
    !s
  in
  let mask = stride - 1 in
  let combo = sc.combo in
  let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
  for k = 0 to nsend - 1 do
    let v = ids.(k) in
    combo.(k) <-
      (fine_key t (Float.Array.get xs v) (Float.Array.get ys v) * stride) + k
  done;
  radix_sort sc combo nsend ~top:((fine_cells t * stride) - 1);
  for j = 0 to nsend - 1 do
    let v = ids.(combo.(j) land mask) in
    sc.sid.(j) <- v;
    Float.Array.set sc.sx j (Float.Array.unsafe_get xs v);
    Float.Array.set sc.sy j (Float.Array.unsafe_get ys v)
  done;
  if Array.length sc.rowc < t.ncy + 1 then sc.rowc <- Array.make (t.ncy + 1) 0;
  let ncells = ref 0 and row = ref 0 in
  let k = ref 0 in
  while !k < nsend do
    let key = combo.(!k) / stride in
    let j = ref !k in
    while !j < nsend && combo.(!j) / stride = key do
      incr j
    done;
    let c = !ncells in
    while !row <= key / t.ncx do
      sc.rowc.(!row) <- c;
      incr row
    done;
    sc.cell_beg.(c) <- !k;
    sc.cell_cnt.(c) <- !j - !k;
    sc.cell_cx.(c) <-
      t.x0 +. ((float_of_int (key mod t.ncx) +. 0.5) *. t.cf);
    sc.cell_cy.(c) <-
      t.y0 +. ((float_of_int (key / t.ncx) +. 0.5) *. t.cf);
    incr ncells;
    k := !j
  done;
  sc.cell_beg.(!ncells) <- nsend;
  for r = !row to t.ncy do
    sc.rowc.(r) <- !ncells
  done;
  !ncells

(* One run of the sender walk: sorted sender [j] against the nodes
   [fmembers.(lo .. hi-1)], all in coarse cell [g].  Records, per unmarked
   listener with d^2 <= R'^2, the loudest power, its sender (strict [>]
   in sorted order keeps the first on ties) and the coarse cell.  Record
   [k]'s listener is [receivers.(k)], and a listener's record index lives
   in [sender] (which is -1 for every listener on entry) until its
   decision. *)
let walk_run t sc ~mark ~sender ~receivers ~j ~g ~lo ~hi =
  let x = Float.Array.unsafe_get sc.sx j and y = Float.Array.unsafe_get sc.sy j in
  let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
  for m = lo to hi - 1 do
    let u = Array.unsafe_get t.fmembers m in
    if Bytes.unsafe_get mark u = '\000' then begin
      let dx = x -. Float.Array.unsafe_get xs u
      and dy = y -. Float.Array.unsafe_get ys u in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 <= t.silence_r2 then begin
        let pw = t.power /. pow_alpha t d2 in
        let k = Array.unsafe_get sender u in
        if k < 0 then begin
          let k = sc.nrec in
          grow_records sc k;
          sc.nrec <- k + 1;
          Array.unsafe_set sender u k;
          receivers.(k) <- u;
          sc.lbest.(k) <- j;
          sc.llink.(k) <- g;
          Float.Array.set sc.lpw k pw
        end
        else if pw > Float.Array.unsafe_get sc.lpw k then begin
          Float.Array.unsafe_set sc.lpw k pw;
          Array.unsafe_set sc.lbest k j
        end
      end
    end
  done

(* The sender walk: each sorted sender visits the fine cells within R' of
   it, a row at a time, in runs that share a coarse cell.  A listener with
   d^2 <= R'^2 is within R' (1 + 2u) on each axis, so within the rounded
   bound x -+ (R' + 1e-9 (1 + |x| + R')); the cells come from the
   expression that assigned the nodes, which is monotone. *)
let walk t sc ~nsend ~mark ~sender ~receivers =
  let reach = t.reach in
  let fits = reach < float_of_int (max t.ncx t.ncy) *. t.cf in
  for j = 0 to nsend - 1 do
    let x = Float.Array.unsafe_get sc.sx j and y = Float.Array.unsafe_get sc.sy j in
    let wx = reach +. (1e-9 *. (1. +. Float.abs x +. reach))
    and wy = reach +. (1e-9 *. (1. +. Float.abs y +. reach)) in
    let kx0 = if fits then fine_bound (x -. wx) t.x0 t.cf t.ncx ~pad:0 else 0
    and kx1 = if fits then fine_bound (x +. wx) t.x0 t.cf t.ncx ~pad:0 else t.ncx - 1
    and ky0 = if fits then fine_bound (y -. wy) t.y0 t.cf t.ncy ~pad:0 else 0
    and ky1 = if fits then fine_bound (y +. wy) t.y0 t.cf t.ncy ~pad:0 else t.ncy - 1 in
    for ky = ky0 to ky1 do
      let kx = ref kx0 in
      while !kx <= kx1 do
        let run_end = min kx1 ((((!kx / coarse_k) + 1) * coarse_k) - 1) in
        let row = ky * t.ncx in
        walk_run t sc ~mark ~sender ~receivers ~j
          ~g:(((ky / coarse_k) * t.mcx) + (!kx / coarse_k))
          ~lo:t.fstart.(row + !kx) ~hi:t.fstart.(row + run_end + 1);
        kx := run_end + 1
      done
    done
  done

(* Whether fine row [r] exists and its center is within squared
   vertical distance [q] of [gyc]: the row part of the center distance
   [split] evaluates, a lower bound on it. *)
let[@inline] row_in t r ~gyc ~q =
  r >= 0 && r < t.ncy
  && (let dy = t.y0 +. ((float_of_int r +. 0.5) *. t.cf) -. gyc in
      dy *. dy < q)

(* The last fine row from [r0] in direction [dir] (+1 or -1) that is
   [row_in] at q = thr^2 4^i of coarse cell [g]'s center, or [r0 - dir]
   if none.  On each side of the center the rows' distance only grows
   outwards (every operation is monotone), so an estimate is corrected
   in a step or two. *)
let row_edge t ~g ~i ~r0 ~dir =
  let gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc)
  and q = t.threshold2 *. float_of_int (1 lsl (2 * i)) in
  let est = r0 + (dir * t.band_rows.(i)) in
  let r = ref (if est < -1 then -1 else if est > t.ncy then t.ncy else est) in
  if row_in t !r ~gyc ~q then
    while row_in t (!r + dir) ~gyc ~q do
      r := !r + dir
    done
  else
    while !r <> r0 - dir && not (row_in t !r ~gyc ~q) do
      r := !r - dir
    done;
  !r

(* The senders in fine rows [lo .. hi] (clamped to the grid). *)
let row_senders t sc ~lo ~hi =
  let lo = max lo 0 and hi = min hi (t.ncy - 1) in
  if lo > hi then 0 else sc.cell_beg.(sc.rowc.(hi + 1)) - sc.cell_beg.(sc.rowc.(lo))

(* The senders in the rows [row_in] at q = thr^2 4^i of coarse cell [g]'s
   center, rows [dn] and [up] being the two nearest it. *)
let window_senders t sc ~g ~i ~dn ~up =
  row_senders t sc
    ~lo:(row_edge t ~g ~i ~r0:dn ~dir:(-1))
    ~hi:(row_edge t ~g ~i ~r0:up ~dir:1)

(* Split the occupied sender cells for coarse cell [g]: near cells'
   senders go to [near] in sorted order (their count is returned), and
   [far.(0)] becomes the bound F' (see the module comment), [far.(1)]
   nan (F not computed).  Only cells in rows within thr of the center can
   be near: those are visited and banded on their center distance; every
   other row is banded whole, from per-row counts, on its vertical
   distance alone (a lower bound). *)
let split t sc ~ncells ~g =
  let gxc = t.x0 +. ((float_of_int (g mod t.mcx) +. 0.5) *. t.cc)
  and gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc) in
  let thr2 = t.threshold2 in
  let q4 = 4. *. thr2 and q16 = 16. *. thr2 and q64 = 64. *. thr2 in
  let up = ((g / t.mcx) * coarse_k) + (coarse_k / 2) in
  let dn = min (up - 1) (t.ncy - 1) in
  let s1 = window_senders t sc ~g ~i:1 ~dn ~up
  and s2 = window_senders t sc ~g ~i:2 ~dn ~up
  and s3 = window_senders t sc ~g ~i:3 ~dn ~up in
  let lo = max (row_edge t ~g ~i:0 ~r0:dn ~dir:(-1)) 0
  and hi = min (row_edge t ~g ~i:0 ~r0:up ~dir:1) (t.ncy - 1) in
  let bands = sc.bands in
  bands.(0) <- s1 - row_senders t sc ~lo ~hi;
  bands.(1) <- s2 - s1;
  bands.(2) <- s3 - s2;
  bands.(3) <- sc.cell_beg.(ncells) - s3;
  (* Branch-free: a cell's senders are always written after the near
     list, which only grows past them when the cell is near. *)
  let nnear = ref 0 in
  for c = sc.rowc.(lo) to (if lo > hi then -1 else sc.rowc.(hi + 1) - 1) do
    let dx = Array.unsafe_get sc.cell_cx c -. gxc
    and dy = Array.unsafe_get sc.cell_cy c -. gyc in
    let d2 = (dx *. dx) +. (dy *. dy) in
    let cnt = Array.unsafe_get sc.cell_cnt c in
    let far = Bool.to_int (d2 >= thr2) in
    let b = Bool.to_int (d2 >= q4) + Bool.to_int (d2 >= q16) + Bool.to_int (d2 >= q64) in
    Array.unsafe_set bands b (Array.unsafe_get bands b + (cnt * far));
    let jbeg = Array.unsafe_get sc.cell_beg c in
    for j = 0 to cnt - 1 do
      Array.unsafe_set sc.near (!nnear + j) (jbeg + j)
    done;
    nnear := !nnear + (cnt * (1 - far))
  done;
  let band = t.band in
  if ncells > 1_000_000 then Float.Array.set sc.far 0 Float.infinity
  else
    Float.Array.set sc.far 0
      (((float_of_int bands.(0) *. Float.Array.get band 0)
        +. (float_of_int bands.(1) *. Float.Array.get band 1)
        +. (float_of_int bands.(2) *. Float.Array.get band 2)
        +. (float_of_int bands.(3) *. Float.Array.get band 3))
       *. (1. +. 1e-9));
  Float.Array.set sc.far 1 Float.nan;
  !nnear

(* The exact far sum of coarse cell [g] into [far.(1)]: far cells in cell
   order, count * P / d(centers)^alpha. *)
let far_exact t sc ~ncells ~g =
  let gxc = t.x0 +. ((float_of_int (g mod t.mcx) +. 0.5) *. t.cc)
  and gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc) in
  let far = ref 0. in
  for c = 0 to ncells - 1 do
    let dx = sc.cell_cx.(c) -. gxc and dy = sc.cell_cy.(c) -. gyc in
    let d2 = (dx *. dx) +. (dy *. dy) in
    if d2 >= t.threshold2 then begin
      far := !far +. (float_of_int sc.cell_cnt.(c) *. (t.power /. pow_alpha t d2));
      sc.far_terms <- sc.far_terms + 1
    end
  done;
  sc.exact_sums <- sc.exact_sums + 1;
  Float.Array.set sc.far 1 !far

(* The SINR test of walk record [k] (listener [u]) against coarse cell [g]'s split
   ([nnear] near senders): its near powers summed from 0 and from the far
   bound decide it unless they disagree; then the exact far sum (computed
   at most once per cell) and the stored powers re-added in order do. *)
let decide t sc ~u ~k ~g ~ncells ~nnear =
  let ux = Float.Array.get (Soa.xs t.soa) u and uy = Float.Array.get (Soa.ys t.soa) u in
  let power = t.power and beta = t.beta and noise = t.noise in
  let best = Float.Array.get sc.lpw k in
  let lo = ref 0. and hi = ref (Float.Array.get sc.far 0) in
  for q = 0 to nnear - 1 do
    let j = Array.unsafe_get sc.near q in
    let dx = Float.Array.unsafe_get sc.sx j -. ux
    and dy = Float.Array.unsafe_get sc.sy j -. uy in
    let pw = power /. pow_alpha t ((dx *. dx) +. (dy *. dy)) in
    Float.Array.unsafe_set sc.npw q pw;
    lo := !lo +. pw;
    hi := !hi +. pw
  done;
  if best >= beta *. (noise +. !hi -. best) then true
  else if not (best >= beta *. (noise +. !lo -. best)) then false
  else begin
    if Float.is_nan (Float.Array.get sc.far 1) then far_exact t sc ~ncells ~g;
    let total = ref (Float.Array.get sc.far 1) in
    for q = 0 to nnear - 1 do
      total := !total +. Float.Array.unsafe_get sc.npw q
    done;
    best >= beta *. (noise +. !total -. best)
  end

let resolve_in t sc ~ids ~nsend ~listeners ~mark ~sender ~receivers =
  let ncells = bucket t sc ~ids ~nsend in
  sc.nrec <- 0;
  walk t sc ~nsend ~mark ~sender ~receivers;
  (* Silent records (loudest below beta * N) are decided here; the rest
     are chained by coarse cell. *)
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let floor = t.beta *. t.noise in
  let ngroups = ref 0 and summed = ref 0 in
  for k = 0 to sc.nrec - 1 do
    if Float.Array.get sc.lpw k < floor then sender.(receivers.(k)) <- -1
    else begin
      let g = sc.llink.(k) in
      if sc.gstamp.(g) <> stamp then begin
        sc.gstamp.(g) <- stamp;
        sc.ghead.(g) <- -1;
        sc.groups.(!ngroups) <- g;
        incr ngroups
      end;
      sc.llink.(k) <- sc.ghead.(g);
      sc.ghead.(g) <- k;
      incr summed
    end
  done;
  let near_links = ref 0 in
  sc.exact_sums <- 0;
  sc.far_terms <- 0;
  for a = 0 to !ngroups - 1 do
    let g = sc.groups.(a) in
    let nnear = split t sc ~ncells ~g in
    let k = ref sc.ghead.(g) in
    while !k >= 0 do
      let u = receivers.(!k) in
      near_links := !near_links + nnear;
      sender.(u) <-
        (if decide t sc ~u ~k:!k ~g ~ncells ~nnear then sc.sid.(sc.lbest.(!k))
         else -1);
      k := sc.llink.(!k)
    done
  done;
  (* Every record is decided: the decoders are the listeners with a
     sender, kept in record order. *)
  let count = ref 0 in
  for k = 0 to sc.nrec - 1 do
    let u = receivers.(k) in
    if sender.(u) >= 0 then begin
      receivers.(!count) <- u;
      incr count
    end
  done;
  sc.nrec <- 0;
  if Metrics.is_enabled () then begin
    Metrics.incr m_slots;
    Metrics.add m_active !ngroups;
    Metrics.add m_near !near_links;
    Metrics.add m_far sc.far_terms;
    Metrics.add m_far_exact sc.exact_sums;
    Metrics.add m_silent (listeners - !summed);
    Metrics.add m_links (!near_links + sc.far_terms)
  end;
  (* The receivers are in walk order. *)
  radix_sort sc receivers !count ~top:(Soa.length t.soa - 1);
  !count

let resolve t ~ids ~nsend ~listeners ~mark ~sender ~receivers =
  if nsend = 0 then 0
  else begin
    let sc = acquire ~cells:nsend ~mcells:t.mcells in
    match resolve_in t sc ~ids ~nsend ~listeners ~mark ~sender ~receivers with
    | count ->
      release sc;
      count
    | exception e ->
      (* Listeners still holding a walk record get their -1 back. *)
      for k = 0 to sc.nrec - 1 do
        sender.(receivers.(k)) <- -1
      done;
      sc.nrec <- 0;
      release sc;
      raise e
  end

(* The approximate total incoming power at listener [u], accumulated
   exactly as the resolve kernel's exact branch does: the far sum of u's
   coarse cell (far cells in cell order), then the near senders' exact
   powers in sorted order.  Exposed so tests can assert the eps bound
   against the exact interference sum, and decisions bit for bit. *)
let interference t ~ids ~nsend ~receiver:u =
  if nsend = 0 then 0.
  else begin
    let sc = acquire ~cells:nsend ~mcells:t.mcells in
    Fun.protect ~finally:(fun () -> release sc) @@ fun () ->
    let ncells = bucket t sc ~ids ~nsend in
    let ux = Soa.x t.soa u and uy = Soa.y t.soa u in
    let kx = fine_bound ux t.x0 t.cf t.ncx ~pad:0
    and ky = fine_bound uy t.y0 t.cf t.ncy ~pad:0 in
    let g = ((ky / coarse_k) * t.mcx) + (kx / coarse_k) in
    far_exact t sc ~ncells ~g;
    let total = ref (Float.Array.get sc.far 1) in
    let nnear = split t sc ~ncells ~g in
    for q = 0 to nnear - 1 do
      let j = sc.near.(q) in
      let dx = Float.Array.get sc.sx j -. ux and dy = Float.Array.get sc.sy j -. uy in
      total := !total +. (t.power /. pow_alpha t ((dx *. dx) +. (dy *. dy)))
    done;
    !total
  end

(* Every node within [radius] of node [v] ([v] included): [Soa.dist v u
   <= radius], evaluated by that float expression, over the fine cells
   that overlap the square of half-side [radius] around [v].  The window
   comes from the expression that assigned the nodes to fine cells,
   widened by one cell (side >= 1) each way to absorb rounding; a radius
   that does not fit the grid visits every cell.  No closure or tuple is
   allocated: telemetry calls this once per sender per slot. *)
let iter_within t v ~radius f =
  let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
  let x = Float.Array.get xs v and y = Float.Array.get ys v in
  let fits = radius < float_of_int (max t.ncx t.ncy) *. t.cf in
  let kx0 = if fits then fine_bound (x -. radius) t.x0 t.cf t.ncx ~pad:(-1) else 0
  and kx1 = if fits then fine_bound (x +. radius) t.x0 t.cf t.ncx ~pad:1 else t.ncx - 1
  and ky0 = if fits then fine_bound (y -. radius) t.y0 t.cf t.ncy ~pad:(-1) else 0
  and ky1 = if fits then fine_bound (y +. radius) t.y0 t.cf t.ncy ~pad:1 else t.ncy - 1 in
  for ky = ky0 to ky1 do
    for m = t.fstart.((ky * t.ncx) + kx0) to t.fstart.((ky * t.ncx) + kx1 + 1) - 1 do
      let u = Array.unsafe_get t.fmembers m in
      let dx = x -. Float.Array.unsafe_get xs u
      and dy = y -. Float.Array.unsafe_get ys u in
      if sqrt ((dx *. dx) +. (dy *. dy)) <= radius then f u
    done
  done
