(* Sparse cell-aggregated slot resolution for large n.

   The exact kernels walk every (listener, sender) pair: O(s * n) per slot,
   hopeless at n = 10^5..10^6.  This module resolves a slot touching only
   *occupied* grid cells, with cost O(s log s + A*(C + near pairs)) where
   s is the slot's sender count, C <= s the number of occupied sender
   cells and A the number of *active* listener cells — silent regions of
   the plane are never visited and nothing n x n is ever materialized.

   Two grids over the frozen [Soa] columns:

   - a fine grid (cell side ~R/2, doubled until the grid has O(n) cells
     even for pathological spreads like the two-lines construction)
     buckets the slot's senders: one sort of the sender ids by fine cell
     key, no per-cell allocation;
   - a coarse grid (4x4 fine cells) groups listeners: all listeners of a
     coarse cell share one far-field interference sum, computed once per
     (coarse cell, occupied fine cell) pair.

   Far/near split: a sender cell whose center is at
   least max(Dmin, R + h) from the listener cell's center contributes its
   aggregate count * P/d(centers)^alpha; anything closer is scored
   exactly per listener.  With h the sum of the two cells' half-diagonals
   and Dmin = h / ((1+eps)^(1/alpha) - 1), the far sum's relative error
   is bounded by eps (each far pair's true distance is within [d-h, d+h]
   of the center distance, and d >= Dmin makes the power ratio at most
   1+eps).  The best-sender candidate is always scored exactly: decisions
   can flip only when the eps-perturbed interference crosses the beta
   threshold, never because the signal itself was approximated.

   Exact silence skipping: a listener can decode only a sender within
   R = (P / (beta N))^(1/alpha) (beta > 1 forces the best sender past the
   noise floor alone).  A coarse cell whose center is farther than
   R + h from every occupied sender cell's center therefore decodes
   nothing — the whole cell is skipped without looking at its members.
   This is exact, not part of the eps approximation.

   The same argument, applied per listener inside an active cell, skips
   most of the remaining work.  A listener decodes only if its strongest
   sender reaches beta * N on its own: the SINR test's right-hand side is
   beta * (N + total - best), and total >= best in floating point because
   the sum only adds non-negative terms.  Such a sender is within R of the
   listener, so its fine cell's center lies within R + h of the coarse
   cell's center: it is in one of the cell's *candidate* sender cells
   (usually one or two).  A listener whose loudest candidate sender falls
   below beta * N therefore cannot decode and skips its interference sum;
   a cell's near/far split and far aggregate are computed only once some
   listener of the cell needs them.  Both skips leave every decision
   bit-identical.

   The loudest candidate is found on squared distances first.  Its power
   clears beta * N only if its squared distance is within the padded range
   bound (R + 1e-9 (1 + R))^2: the power is P / d^alpha evaluated with a
   few correctly rounded operations (and libm's pow, within an ulp, for
   alpha <> 3), so clearing beta * N forces d <= R (1 + c u) for a small
   constant c and the unit roundoff u, some 10^6 times inside the pad.  A
   listener with no candidate that near is silent without evaluating any
   power.  For alpha = 3 the power of the nearest candidate is the
   loudest exactly (d2 * sqrt d2 and the division are correctly rounded,
   hence monotone), so one power decides; for other alpha every candidate
   in range is evaluated as before.  The slot's sorted senders' ids and
   positions are copied once into contiguous scratch columns, which the
   per-listener loops read in place of two gathers per sender.

   Per-slot state lives in domain-local scratch (the [Sinr] pattern:
   busy flag, grow-only arrays, stamp-based set membership), so
   Reliability's Pool workers can resolve concurrently on one instance.
   Determinism: for a fixed sender array the sort key is (fine cell,
   input position), so accumulation order — and every float — is a pure
   function of the input, whatever the domain count. *)

open Sinr_obs

let m_slots = Metrics.counter "phys.sparse.slots"
let m_active = Metrics.counter "phys.sparse.active_cells"
let m_near = Metrics.counter "phys.sparse.near_links"
let m_far = Metrics.counter "phys.sparse.far_cell_pairs"
let m_silent = Metrics.counter "phys.sparse.silent_listeners"

(* The resolution-wide link counter [Sinr] also feeds: this kernel adds
   the links it actually scores (near links plus far cell pairs), not
   senders x nodes. *)
let m_links = Metrics.counter "phys.resolve.links"

type t = {
  power : float;
  alpha : float;
  half_alpha : float;
  alpha3 : bool;  (* d^alpha = d2 * sqrt d2 for the default alpha = 3 *)
  beta : float;
  noise : float;
  eps : float;
  x0 : float;
  y0 : float;
  cf : float;  (* fine cell side *)
  inv_cf : float;
  ncx : int;
  ncy : int;
  cc : float;  (* coarse cell side = 4 * cf *)
  mcx : int;
  mcy : int;
  mcells : int;
  active_r2 : float;  (* center-to-center radius of possibly-decoding cells *)
  silence_r2 : float;
      (* squared listener-to-sender distance beyond which a lone sender
         cannot reach beta * N (the padded range bound, see [resolve]) *)
  window : float;     (* finite marking radius (active_r clamped to grid) *)
  threshold2 : float; (* squared center distance of the far/near split *)
  soa : Soa.t;
  fine_of : int array;    (* node -> fine cell key *)
  cstart : int array;     (* coarse cell -> offset into cmembers, len mcells+1 *)
  cmembers : int array;   (* node ids grouped by coarse cell *)
}

let coarse_k = 4

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
  let mcells = mcx * mcy in
  let half_diag side = side *. sqrt 2. /. 2. in
  let h = half_diag cf +. half_diag cc in
  let denom = ((1. +. eps) ** (1. /. alpha)) -. 1. in
  let dmin = h /. denom in
  let threshold = Float.max dmin (r +. h) +. 1e-9 in
  let active_r = r +. h +. 1e-9 in
  (* Window stays finite even when R is (noise 0 makes it infinite): a
     radius covering the whole grid marks every cell, which is correct,
     just no longer sparse. *)
  let window =
    let diag = float_of_int (max mcx mcy) *. cc *. 2. in
    if Float.is_finite active_r then Float.min active_r diag else diag
  in
  let fine_of = Array.make n 0 in
  let clampi v hi = if v < 0 then 0 else if v > hi then hi else v in
  let xs = Soa.xs soa and ys = Soa.ys soa in
  for i = 0 to n - 1 do
    let x = Float.Array.unsafe_get xs i and y = Float.Array.unsafe_get ys i in
    let kx = clampi (int_of_float ((x -. xmin) /. cf)) (ncx - 1) in
    let ky = clampi (int_of_float ((y -. ymin) /. cf)) (ncy - 1) in
    fine_of.(i) <- (ky * ncx) + kx
  done;
  (* Counting sort of the nodes into their coarse cells. *)
  let coarse_of_fine key =
    let kx = key mod ncx and ky = key / ncx in
    ((ky / coarse_k) * mcx) + (kx / coarse_k)
  in
  let cstart = Array.make (mcells + 1) 0 in
  for i = 0 to n - 1 do
    let g = coarse_of_fine fine_of.(i) in
    cstart.(g + 1) <- cstart.(g + 1) + 1
  done;
  for g = 1 to mcells do
    cstart.(g) <- cstart.(g) + cstart.(g - 1)
  done;
  let fill = Array.copy cstart in
  let cmembers = Array.make n 0 in
  for i = 0 to n - 1 do
    let g = coarse_of_fine fine_of.(i) in
    cmembers.(fill.(g)) <- i;
    fill.(g) <- fill.(g) + 1
  done;
  { power = config.Config.power;
    alpha;
    half_alpha = alpha /. 2.;
    alpha3 = alpha = 3.;
    beta = config.Config.beta;
    noise = config.Config.noise;
    eps;
    x0 = xmin;
    y0 = ymin;
    cf;
    inv_cf = 1. /. cf;
    ncx;
    ncy;
    cc;
    mcx;
    mcy;
    mcells;
    active_r2 = active_r *. active_r;
    silence_r2 =
      (let r' = r +. (1e-9 *. (1. +. r)) in
       r' *. r');
    window;
    threshold2 = threshold *. threshold;
    soa;
    fine_of;
    cstart;
    cmembers }

let eps t = t.eps
let fine_cells t = t.ncx * t.ncy
let coarse_cells t = t.mcells

(* ------------------------------------------------------------------ *)
(* Per-domain slot scratch                                             *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable cell_key : int array;     (* occupied fine cell -> fine key *)
  mutable cell_beg : int array;     (* -> first index in the sorted order *)
  mutable cell_cnt : int array;     (* -> sender count *)
  mutable cell_cx : float array;    (* -> cell center *)
  mutable cell_cy : float array;
  mutable combo : int array;        (* sort keys (fine cell, input position) *)
  mutable sid : int array;          (* sorted position -> sender id *)
  mutable sx : Float.Array.t;       (* -> sender position *)
  mutable sy : Float.Array.t;
  mutable near : int array;         (* near cell indices for one coarse cell *)
  mutable cand_head : int array;    (* coarse cell -> first candidate pair *)
  mutable pair_cell : int array;    (* pair -> sender cell in active radius *)
  mutable pair_next : int array;    (* -> next pair of the coarse cell, or -1 *)
  mutable sort_tmp : int array;     (* radix-sort buffer *)
  sort_cnt : int array;             (* radix-sort digit counts, 257 *)
  mutable seen : int array;         (* coarse-cell stamps *)
  mutable active : int array;       (* marked coarse cells *)
  mutable stamp : int;
  mutable busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { cell_key = [||];
        cell_beg = [||];
        cell_cnt = [||];
        cell_cx = [||];
        cell_cy = [||];
        combo = [||];
        sid = [||];
        sx = Float.Array.create 0;
        sy = Float.Array.create 0;
        near = [||];
        cand_head = [||];
        pair_cell = [||];
        pair_next = [||];
        sort_tmp = [||];
        sort_cnt = Array.make 257 0;
        seen = [||];
        active = [||];
        stamp = 0;
        busy = false })

let fresh_scratch ~cells ~mcells =
  { cell_key = Array.make cells 0;
    cell_beg = Array.make cells 0;
    cell_cnt = Array.make cells 0;
    cell_cx = Array.make cells 0.;
    cell_cy = Array.make cells 0.;
    combo = Array.make cells 0;
    sid = Array.make cells 0;
    sx = Float.Array.make cells 0.;
    sy = Float.Array.make cells 0.;
    near = Array.make cells 0;
    cand_head = Array.make mcells 0;
    pair_cell = [||];
    pair_next = [||];
    sort_tmp = [||];
    sort_cnt = Array.make 257 0;
    seen = Array.make mcells 0;
    active = Array.make mcells 0;
    stamp = 0;
    busy = false }

let with_scratch ~cells ~mcells f =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then f (fresh_scratch ~cells ~mcells)
  else begin
    sc.busy <- true;
    if Array.length sc.cell_key < cells then begin
      sc.cell_key <- Array.make cells 0;
      sc.cell_beg <- Array.make cells 0;
      sc.cell_cnt <- Array.make cells 0;
      sc.cell_cx <- Array.make cells 0.;
      sc.cell_cy <- Array.make cells 0.;
      sc.combo <- Array.make cells 0;
      sc.sid <- Array.make cells 0;
      sc.sx <- Float.Array.make cells 0.;
      sc.sy <- Float.Array.make cells 0.;
      sc.near <- Array.make cells 0
    end;
    (* Fresh stamp arrays start zeroed; the running stamp is always >= 1,
       so grown entries can never read as marked. *)
    if Array.length sc.seen < mcells then begin
      sc.seen <- Array.make mcells 0;
      sc.active <- Array.make mcells 0;
      sc.cand_head <- Array.make mcells 0
    end;
    Fun.protect ~finally:(fun () -> sc.busy <- false) (fun () -> f sc)
  end

(* ------------------------------------------------------------------ *)
(* Slot resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* d^alpha from d^2, avoiding libm pow on the default alpha = 3. *)
let[@inline] pow_alpha t d2 =
  if t.alpha3 then d2 *. sqrt d2 else d2 ** t.half_alpha

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
   the per-listener loops read them contiguously.  Returns the number of
   occupied cells. *)
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
  for k = 0 to nsend - 1 do
    combo.(k) <- (t.fine_of.(ids.(k)) * stride) + k
  done;
  radix_sort sc combo nsend ~top:((fine_cells t * stride) - 1);
  let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
  for j = 0 to nsend - 1 do
    let v = ids.(combo.(j) land mask) in
    sc.sid.(j) <- v;
    Float.Array.set sc.sx j (Float.Array.unsafe_get xs v);
    Float.Array.set sc.sy j (Float.Array.unsafe_get ys v)
  done;
  let ncells = ref 0 in
  let k = ref 0 in
  while !k < nsend do
    let key = combo.(!k) / stride in
    let j = ref !k in
    while !j < nsend && combo.(!j) / stride = key do
      incr j
    done;
    let c = !ncells in
    sc.cell_key.(c) <- key;
    sc.cell_beg.(c) <- !k;
    sc.cell_cnt.(c) <- !j - !k;
    sc.cell_cx.(c) <-
      t.x0 +. ((float_of_int (key mod t.ncx) +. 0.5) *. t.cf);
    sc.cell_cy.(c) <-
      t.y0 +. ((float_of_int (key / t.ncx) +. 0.5) *. t.cf);
    incr ncells;
    k := !j
  done;
  !ncells

(* Mark every coarse cell whose center lies within the active radius of
   an occupied sender cell's center; cells outside cannot decode (see the
   header proof) and are never visited.  Each such (coarse cell, sender
   cell) pair is also listed as a candidate of the coarse cell: the only
   sender cells that can hold a sender one of its listeners decodes. *)
let mark_active t sc ~ncells =
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let nactive = ref 0 and npairs = ref 0 in
  let w = t.window in
  for c = 0 to ncells - 1 do
    let cx = sc.cell_cx.(c) and cy = sc.cell_cy.(c) in
    let gxlo = max 0 (int_of_float ((cx -. w -. t.x0) /. t.cc)) in
    let gxhi = min (t.mcx - 1) (int_of_float ((cx +. w -. t.x0) /. t.cc)) in
    let gylo = max 0 (int_of_float ((cy -. w -. t.y0) /. t.cc)) in
    let gyhi = min (t.mcy - 1) (int_of_float ((cy +. w -. t.y0) /. t.cc)) in
    for gy = gylo to gyhi do
      let gyc = t.y0 +. ((float_of_int gy +. 0.5) *. t.cc) in
      for gx = gxlo to gxhi do
        let g = (gy * t.mcx) + gx in
        let gxc = t.x0 +. ((float_of_int gx +. 0.5) *. t.cc) in
        let dx = gxc -. cx and dy = gyc -. cy in
        if (dx *. dx) +. (dy *. dy) <= t.active_r2 then begin
          if sc.seen.(g) <> stamp then begin
            sc.seen.(g) <- stamp;
            sc.active.(!nactive) <- g;
            incr nactive;
            sc.cand_head.(g) <- -1
          end;
          let p = !npairs in
          if p >= Array.length sc.pair_cell then begin
            let grow a =
              let b = Array.make (max 64 (2 * p)) 0 in
              Array.blit a 0 b 0 p;
              b
            in
            sc.pair_cell <- grow sc.pair_cell;
            sc.pair_next <- grow sc.pair_next
          end;
          sc.pair_cell.(p) <- c;
          sc.pair_next.(p) <- sc.cand_head.(g);
          sc.cand_head.(g) <- p;
          npairs := p + 1
        end
      done
    done
  done;
  !nactive

let resolve t ~ids ~nsend ~mark ~sender ~receivers =
  if nsend = 0 then 0
  else
    with_scratch ~cells:(max 1 nsend) ~mcells:(max 1 t.mcells) @@ fun sc ->
    let ncells = bucket t sc ~ids ~nsend in
    let nactive = mark_active t sc ~ncells in
    (* Per-pair loops index the columns directly: a call into [Soa] from
       here would not be inlined and would box every coordinate. *)
    let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
    let sid = sc.sid and sx = sc.sx and sy = sc.sy in
    let cmembers = t.cmembers in
    let power = t.power and beta = t.beta and noise = t.noise in
    let floor = beta *. noise in
    let silence_r2 = t.silence_r2 in
    let count = ref 0 in
    let near_links = ref 0 and far_pairs = ref 0 and silent = ref 0 in
    for a = 0 to nactive - 1 do
      let g = sc.active.(a) in
      let mbeg = t.cstart.(g) and mend = t.cstart.(g + 1) in
      (* A marked cell with no members is still silent: skip. *)
      if mbeg < mend then begin
        (* Split the occupied sender cells — near ones are scored
           exactly per listener, far ones share one aggregate — only once
           some listener of this cell can decode. *)
        let nnear = ref 0 and split = ref false in
        let far = ref 0. and near_sz = ref 0 in
        for m = mbeg to mend - 1 do
          let u = Array.unsafe_get cmembers m in
          if Bytes.unsafe_get mark u = '\000' then begin
            let ux = Float.Array.unsafe_get xs u
            and uy = Float.Array.unsafe_get ys u in
            (* Exact per-listener silence (see the module comment): a
               decodable listener's strongest sender reaches beta * N on
               its own, lies in a candidate cell, and is within the
               padded range bound.  The nearest candidate is found on
               squared distances alone. *)
            let nearest = ref Float.infinity in
            let p = ref sc.cand_head.(g) in
            while !p >= 0 do
              let c = Array.unsafe_get sc.pair_cell !p in
              let jbeg = sc.cell_beg.(c) in
              for j = jbeg to jbeg + sc.cell_cnt.(c) - 1 do
                let dx = Float.Array.unsafe_get sx j -. ux
                and dy = Float.Array.unsafe_get sy j -. uy in
                let d2 = (dx *. dx) +. (dy *. dy) in
                if d2 < !nearest then nearest := d2
              done;
              p := Array.unsafe_get sc.pair_next !p
            done;
            (* The loudest candidate's power, evaluated only in range.
               For alpha = 3 it is the nearest one's: sqrt, multiply and
               divide are correctly rounded, hence monotone.  Otherwise
               libm's pow is not guaranteed monotone, so every candidate
               is evaluated as the full test would. *)
            let loudest =
              if !nearest > silence_r2 then 0.
              else if t.alpha3 then power /. pow_alpha t !nearest
              else begin
                let loudest = ref 0. in
                let p = ref sc.cand_head.(g) in
                while !p >= 0 do
                  let c = Array.unsafe_get sc.pair_cell !p in
                  let jbeg = sc.cell_beg.(c) in
                  for j = jbeg to jbeg + sc.cell_cnt.(c) - 1 do
                    let dx = Float.Array.unsafe_get sx j -. ux
                    and dy = Float.Array.unsafe_get sy j -. uy in
                    let pw = power /. pow_alpha t ((dx *. dx) +. (dy *. dy)) in
                    if pw > !loudest then loudest := pw
                  done;
                  p := Array.unsafe_get sc.pair_next !p
                done;
                !loudest
              end
            in
            if loudest < floor then incr silent
            else begin
              if not !split then begin
                let gxc = t.x0 +. ((float_of_int (g mod t.mcx) +. 0.5) *. t.cc)
                and gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc) in
                for c = 0 to ncells - 1 do
                  let dx = sc.cell_cx.(c) -. gxc
                  and dy = sc.cell_cy.(c) -. gyc in
                  let d2 = (dx *. dx) +. (dy *. dy) in
                  if d2 >= t.threshold2 then begin
                    far :=
                      !far
                      +. float_of_int sc.cell_cnt.(c)
                         *. (power /. pow_alpha t d2);
                    incr far_pairs
                  end
                  else begin
                    sc.near.(!nnear) <- c;
                    incr nnear;
                    near_sz := !near_sz + sc.cell_cnt.(c)
                  end
                done;
                split := true
              end;
              let nnear = !nnear in
              let total = ref !far in
              let best = ref (-1) and best_pw = ref 0. in
              for q = 0 to nnear - 1 do
                let c = Array.unsafe_get sc.near q in
                let jbeg = sc.cell_beg.(c) in
                for j = jbeg to jbeg + sc.cell_cnt.(c) - 1 do
                  let dx = Float.Array.unsafe_get sx j -. ux
                  and dy = Float.Array.unsafe_get sy j -. uy in
                  let d2 = (dx *. dx) +. (dy *. dy) in
                  let pw = power /. pow_alpha t d2 in
                  total := !total +. pw;
                  if pw > !best_pw then begin
                    best_pw := pw;
                    best := j
                  end
                done
              done;
              near_links := !near_links + !near_sz;
              if !best >= 0
                 && !best_pw >= beta *. (noise +. !total -. !best_pw)
              then begin
                Array.unsafe_set sender u (Array.unsafe_get sid !best);
                Array.unsafe_set receivers !count u;
                incr count
              end
            end
          end
        done
      end
    done;
    if Metrics.is_enabled () then begin
      Metrics.incr m_slots;
      Metrics.add m_active nactive;
      Metrics.add m_near !near_links;
      Metrics.add m_far !far_pairs;
      Metrics.add m_silent !silent;
      Metrics.add m_links (!near_links + !far_pairs)
    end;
    (* The receivers were appended coarse cell by coarse cell. *)
    radix_sort sc receivers !count ~top:(Array.length t.fine_of - 1);
    !count

(* Approximate total incoming power at listener [u], exactly as the
   resolve kernel accumulates it (shared far sum of u's coarse cell plus
   exact near terms).  Exposed so tests can assert the eps bound against
   the exact interference sum. *)
let interference t ~ids ~nsend ~receiver:u =
  if nsend = 0 then 0.
  else
    with_scratch ~cells:(max 1 nsend) ~mcells:(max 1 t.mcells) @@ fun sc ->
    let ncells = bucket t sc ~ids ~nsend in
    let kx = t.fine_of.(u) mod t.ncx and ky = t.fine_of.(u) / t.ncx in
    let g = ((ky / coarse_k) * t.mcx) + (kx / coarse_k) in
    let gxc = t.x0 +. ((float_of_int (g mod t.mcx) +. 0.5) *. t.cc) in
    let gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc) in
    let total = ref 0. in
    let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
    let ux = Float.Array.get xs u and uy = Float.Array.get ys u in
    for c = 0 to ncells - 1 do
      let dx = sc.cell_cx.(c) -. gxc and dy = sc.cell_cy.(c) -. gyc in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 >= t.threshold2 then
        total :=
          !total +. (float_of_int sc.cell_cnt.(c) *. (t.power /. pow_alpha t d2))
      else begin
        let jbeg = sc.cell_beg.(c) in
        for j = jbeg to jbeg + sc.cell_cnt.(c) - 1 do
          let dx = Float.Array.get sc.sx j -. ux
          and dy = Float.Array.get sc.sy j -. uy in
          let d2 = (dx *. dx) +. (dy *. dy) in
          total := !total +. (t.power /. pow_alpha t d2)
        done
      end
    done;
    !total

(* Every node whose coarse cell overlaps the axis-aligned square of
   half-side [radius] around node [v] — a superset of the nodes within
   [radius] of [v], found from the deployment's coarse-cell index in
   O(members of the overlapped cells).  The window is computed with the
   expression that assigned the nodes to fine cells and widened by one
   fine cell (side >= 1) each way, which absorbs any rounding in the
   coordinate arithmetic; a radius that does not fit the grid visits
   every cell. *)
let iter_window t v ~radius f =
  let x = Float.Array.get (Soa.xs t.soa) v
  and y = Float.Array.get (Soa.ys t.soa) v in
  let span = float_of_int (max t.ncx t.ncy) *. t.cf in
  let gx0, gx1, gy0, gy1 =
    if not (radius < span) then (0, t.mcx - 1, 0, t.mcy - 1)
    else begin
      let coarse c lo ncells ~pad =
        let k = int_of_float ((c -. lo) /. t.cf) + pad in
        let k = if k < 0 then 0 else if k > ncells - 1 then ncells - 1 else k in
        k / coarse_k
      in
      ( coarse (x -. radius) t.x0 t.ncx ~pad:(-1),
        coarse (x +. radius) t.x0 t.ncx ~pad:1,
        coarse (y -. radius) t.y0 t.ncy ~pad:(-1),
        coarse (y +. radius) t.y0 t.ncy ~pad:1 )
    end
  in
  for gy = gy0 to gy1 do
    for gx = gx0 to gx1 do
      let g = (gy * t.mcx) + gx in
      for m = t.cstart.(g) to t.cstart.(g + 1) - 1 do
        f t.cmembers.(m)
      done
    done
  done
