(* Grid-pruned far-field interference (opt-in, bounded relative error).

   Interference in Eq. 1 is a global sum: every sender contributes to
   every listener, which makes exact resolution Theta(|S| * n) however
   sparse the far field is.  For large deployments most of that sum is
   contributed by senders many transmission ranges away, where the
   individual powers are tiny and smooth.  This module aggregates them.

   Construction: nodes are bucketed into square cells of side [cell]
   (default R/2 — the same square-grid geometry Grid_index uses for range
   queries and Lemma 10.3 uses for its ring argument).  Per slot, the
   senders are grouped by cell; per listener u, a cell whose center m is
   at distance D = d(u, m) >= threshold is "far" and contributes

       count(cell) * P / D^alpha

   — one pow per occupied far cell instead of one per far sender — while
   senders in near cells are scored exactly through the gain cache.

   Error bound (the eps_I contract).  Every sender w of a cell with
   center m satisfies |d(u,w) - d(u,m)| <= h where h = cell*sqrt(2)/2 is
   the half-diagonal.  For D >= Dmin = h / ((1+eps)^(1/alpha) - 1) the
   per-sender power ratio (d/D)^alpha lies in [1-eps, 1+eps] (both sides
   follow from convexity of x^alpha, alpha > 2), so the aggregated far
   interference I' obeys |I' - I_far| <= eps * I_far <= eps * I.

   Exactness of the decision set: the threshold also satisfies
   threshold >= R + h, so a far cell cannot contain any sender within the
   transmission range R — and a sender beyond R can never pass the beta
   test (P/d^alpha < beta*N there).  Hence the *best-sender* candidate is
   always scored exactly; only the interference term carries the bounded
   eps error, and a decision can differ from the exact kernel only for
   links within that margin of the beta threshold.

   Telemetry (when Sinr_obs.Metrics is enabled): phys.farfield.near_links
   (exactly scored sender-listener pairs), phys.farfield.pruned_links
   (pairs folded into a cell aggregate), phys.farfield.far_cells (cell
   aggregates evaluated). *)

open Sinr_geom
open Sinr_obs

let m_near = Metrics.counter "phys.farfield.near_links"
let m_pruned = Metrics.counter "phys.farfield.pruned_links"
let m_cells = Metrics.counter "phys.farfield.far_cells"

type t = {
  power : float;
  alpha : float;
  beta : float;
  noise : float;
  eps : float;
  cell : float;
  half_diag : float;
  threshold : float;
  points : Point.t array;
  cell_of : int array;       (* node -> compact cell id *)
  centers : Point.t array;   (* compact cell id -> cell center *)
  ncells : int;
}

let eps t = t.eps
let threshold t = t.threshold
let cell_size t = t.cell

let create (config : Config.t) points ~eps =
  if eps <= 0. || eps >= 1. then
    invalid_arg "Farfield.create: eps must lie in (0, 1)";
  let r = Config.range config in
  let cell = Float.max 1. (r /. 2.) in
  let half_diag = cell *. sqrt 2. /. 2. in
  let dmin = half_diag /. (((1. +. eps) ** (1. /. config.Config.alpha)) -. 1.) in
  let threshold = Float.max dmin (r +. half_diag) +. 1e-9 in
  let n = Array.length points in
  let keys = Hashtbl.create (max 16 n) in
  let cell_of = Array.make n 0 in
  let centers = ref [] in
  let ncells = ref 0 in
  Array.iteri
    (fun i (p : Point.t) ->
      let kx = int_of_float (Float.floor (p.Point.x /. cell))
      and ky = int_of_float (Float.floor (p.Point.y /. cell)) in
      let id =
        match Hashtbl.find_opt keys (kx, ky) with
        | Some id -> id
        | None ->
          let id = !ncells in
          incr ncells;
          Hashtbl.add keys (kx, ky) id;
          centers :=
            Point.make
              ((float_of_int kx +. 0.5) *. cell)
              ((float_of_int ky +. 0.5) *. cell)
            :: !centers;
          id
      in
      cell_of.(i) <- id)
    points;
  { power = config.Config.power;
    alpha = config.Config.alpha;
    beta = config.Config.beta;
    noise = config.Config.noise;
    eps;
    cell;
    half_diag;
    threshold;
    points;
    cell_of;
    centers = Array.of_list (List.rev !centers);
    ncells = !ncells }

(* Group the slot's senders by cell: [occupied] lists the distinct cell
   ids, [members]/[starts] is a counting-sort bucketing of the sender
   array.  O(|S| + ncells) per slot. *)
type slot = {
  occupied : int array;
  counts : int array;            (* per cell id *)
  starts : int array;            (* per cell id, offset into members *)
  members : int array;           (* senders grouped by cell *)
}

let bucket t ~ids ~nsend =
  let counts = Array.make t.ncells 0 in
  for k = 0 to nsend - 1 do
    let c = t.cell_of.(ids.(k)) in
    counts.(c) <- counts.(c) + 1
  done;
  let nocc = ref 0 in
  for c = 0 to t.ncells - 1 do
    if counts.(c) > 0 then incr nocc
  done;
  let occupied = Array.make !nocc 0 in
  let starts = Array.make t.ncells 0 in
  let off = ref 0 and oi = ref 0 in
  for c = 0 to t.ncells - 1 do
    if counts.(c) > 0 then begin
      occupied.(!oi) <- c;
      incr oi;
      starts.(c) <- !off;
      off := !off + counts.(c)
    end
  done;
  let members = Array.make nsend 0 in
  let cursor = Array.copy starts in
  for k = 0 to nsend - 1 do
    let c = t.cell_of.(ids.(k)) in
    members.(cursor.(c)) <- ids.(k);
    cursor.(c) <- cursor.(c) + 1
  done;
  { occupied; counts; starts; members }

(* Score every listener against the bucketed senders, recording decodes
   ([sender.(u)], [u] appended to [receivers], ascending); returns the
   receiver count.  Near cells read the listener's cached power row (fetched
   lazily, only for listeners that actually have a near cell — filled into
   [scratch] past the cache cap); far cells contribute one aggregate term
   each. *)
let resolve_into t ~cache ~scratch ~slot:s ~mark ~sender ~receivers =
  let count = ref 0 in
  let nocc = Array.length s.occupied in
  let telemetry = Metrics.is_enabled () in
  let near_links = ref 0 and pruned = ref 0 and far_cells = ref 0 in
  for u = 0 to Array.length t.points - 1 do
    if Bytes.unsafe_get mark u = '\000' then begin
      let at = t.points.(u) in
      let row = ref None in
      let get_row () =
        match !row with
        | Some r -> r
        | None ->
          let r = Gain_cache.row cache u ~scratch in
          row := Some r;
          r
      in
      let total = ref 0. in
      let best = ref (-1) and best_pw = ref 0. in
      for ci = 0 to nocc - 1 do
        let c = s.occupied.(ci) in
        let d = Point.dist at t.centers.(c) in
        if d >= t.threshold then begin
          (* Far cell: all members aggregated at the center distance. *)
          total :=
            !total
            +. (float_of_int s.counts.(c) *. (t.power /. (d ** t.alpha)));
          if telemetry then begin
            pruned := !pruned + s.counts.(c);
            incr far_cells
          end
        end
        else begin
          let r = get_row () in
          let lo = s.starts.(c) in
          for k = lo to lo + s.counts.(c) - 1 do
            let v = s.members.(k) in
            let pw = Float.Array.unsafe_get r v in
            total := !total +. pw;
            if pw > !best_pw then begin
              best_pw := pw;
              best := v
            end
          done;
          if telemetry then near_links := !near_links + s.counts.(c)
        end
      done;
      if !best >= 0 && !best_pw >= t.beta *. (t.noise +. !total -. !best_pw)
      then begin
        sender.(u) <- !best;
        receivers.(!count) <- u;
        incr count
      end
    end
  done;
  if telemetry then begin
    Metrics.add m_near !near_links;
    Metrics.add m_pruned !pruned;
    Metrics.add m_cells !far_cells
  end;
  !count

let resolve t ~cache ~scratch ~ids ~nsend ~mark ~sender ~receivers =
  resolve_into t ~cache ~scratch ~slot:(bucket t ~ids ~nsend) ~mark ~sender
    ~receivers

(* The approximated total interference at a node — what resolve's [total]
   accumulator sees, exposed so tests can assert the eps_I bound against
   the exact sum.  (Aggregation order differs from resolve's count*power
   product only in float rounding; both sides satisfy the bound.) *)
let interference t ~receiver ~senders =
  let at = t.points.(receiver) in
  List.fold_left
    (fun acc v ->
      let c = t.cell_of.(v) in
      let d = Point.dist at t.centers.(c) in
      if d >= t.threshold then acc +. (t.power /. (d ** t.alpha))
      else acc +. (t.power /. (Point.dist t.points.(v) at ** t.alpha)))
    0. senders
