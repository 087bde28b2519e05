(* Exact SINR reception resolution (paper Eq. 1).

   Given the set S of concurrently transmitting nodes, a listening node u
   decodes the message of v in S iff

     P/d(v,u)^alpha >= beta * (N + I(u) - P/d(v,u)^alpha)

   where I(u) = sum_{w in S} P/d(w,u)^alpha is the total incoming power.
   Because beta > 1, at most one sender can satisfy this at u, so reception
   resolves to at most one message per listener per slot.  Transmitters are
   half-duplex: a node in S never receives.  There is no collision
   detection: a listener that decodes nothing learns nothing (Section 4.6).

   Fast path (see DESIGN.md "Physics fast path").  The point set is frozen
   for the life of the simulator, so link powers are constants: resolution
   reads them from a per-receiver [Gain_cache] row (bit-identical to the
   direct formula) instead of re-deriving a sqrt and a libm pow per pair
   per slot.  Senders travel as an int array plus a membership bitmap held
   in per-domain scratch (no per-slot list/tuple churn), decodes land in
   caller-owned [decoded] buffers (no per-slot n-array), and perturbed
   gains multiply the cached clean-channel power.  Each node keeps one
   neighbour list (its [in_range] set, then a thin boundary ring; see
   [build_near]): [iter_in_range] walks it, and a clean slot scores only
   the listeners on some sender's list (beta > 1 makes everyone else
   silent, see [score_clean]), on the calling domain or, from
   [par_threshold] nodes on, fanned out over [Sinr_par.Pool].  From
   [sparse_threshold] nodes on (or at any size with [?sparse_eps]),
   [Sparse] (the one approximate kernel, eps-bounded far interference)
   resolves clean slots instead and the gain cache is bypassed.
   [resolve_reference] keeps the seed kernel verbatim so tests and benches
   can assert the equivalence. *)

open Sinr_geom
open Sinr_par
open Sinr_obs

let m_resolve_calls = Metrics.counter "phys.resolve.calls"
let m_resolve_links = Metrics.counter "phys.resolve.links"
let m_resolve_silent = Metrics.counter "phys.resolve.silent_listeners"

(* From this node count on, [create] installs [Sparse] with
   [default_sparse_eps]: the only way 10^5..10^6-node slots stay
   sub-second.  Below it resolution is exact. *)
let sparse_threshold = 4096
let default_sparse_eps = 0.5

(* Below this node count the per-chunk pool overhead dwarfs the scoring
   work, so clean slots are scored on the calling domain. *)
let par_threshold = 1024

type t = {
  config : Config.t;
  soa : Soa.t;  (* hot state: flat position columns, read by every kernel *)
  points : Point.t array Lazy.t;
      (* boxed record view, forced only by geometry/graph consumers
         (Induced, Spec_check, the experiments) — never by the hot path *)
  cache : Gain_cache.t;
  sparse : Sparse.t option;
  range_bound : float;
      (* [Config.range] + 1e-12, the [in_range] bound, taken once: the
         range is a libm pow *)
  nbrs : near array option Atomic.t;
      (* every node's neighbour list, built together on first use; never
         built when [sparse] is installed (its grid answers
         [iter_in_range]) *)
}

(* Node [v]'s neighbour list: ascending, the [in_range] members of [v]
   ([v] itself included) in [near.(0 .. split-1)], then, ascending again,
   the boundary ring of nodes beyond the range but inside the window
   [build_near] queries. *)
and near = { near : int array; split : int }

(* Shared constructor body: [points] must be the record view of [soa]
   (lazily, so the column-first path at n = 10^6 never boxes a point).
   The sparse kernel, which reads neither the gain cache nor the
   neighbour lists, is installed with [sparse_eps] when given and
   otherwise from [sparse_threshold] nodes on. *)
let make ?sparse_eps config soa points =
  let sparse_eps =
    match sparse_eps with
    | Some _ -> sparse_eps
    | None when Soa.length soa >= sparse_threshold -> Some default_sparse_eps
    | None -> None
  in
  { config;
    soa;
    points;
    cache =
      Gain_cache.create config soa ~cap_bytes:Gain_cache.default_cap_bytes
        ~bypass:(Option.is_some sparse_eps);
    sparse = Option.map (fun eps -> Sparse.create config soa ~eps) sparse_eps;
    range_bound = Config.range config +. 1e-12;
    nbrs = Atomic.make None }

let validate_min_dist ~who soa =
  let dmin = Placement.min_pairwise_dist_xy (Soa.xs soa) (Soa.ys soa) in
  if dmin < 1. -. 1e-9 then
    invalid_arg
      (Fmt.str "%s: min pairwise distance %.4g violates the \
                near-field normalization (must be >= 1)" who dmin)

let create ?sparse_eps config points =
  if Array.length points = 0 then invalid_arg "Sinr.create: no nodes";
  let soa = Soa.of_points points in
  validate_min_dist ~who:"Sinr.create" soa;
  make ?sparse_eps config soa (Lazy.from_val points)

(* Column-first constructor (streaming placements at large n).  [check]
   defaults to true; generators that guarantee the min-distance invariant
   by construction pass [~check:false] to skip the O(n) validation pass. *)
let create_soa ?(check = true) ?sparse_eps config soa =
  if Soa.length soa = 0 then invalid_arg "Sinr.create_soa: no nodes";
  if check then validate_min_dist ~who:"Sinr.create_soa" soa;
  make ?sparse_eps config soa (lazy (Soa.to_points soa))

let config t = t.config
let soa t = t.soa
let points t = Lazy.force t.points
let n t = Soa.length t.soa
let gain_cache t = t.cache
let sparse t = t.sparse

(* A per-slot channel perturbation, supplied by an adversary (lib/chaos):
   [noise_factor u] scales the ambient noise N seen by receiver u (jamming
   raises it), [gain ~sender ~receiver] scales the received power of one
   link (multiplicative fading makes gray-zone links flap).  The identity
   perturbation is factor 1 everywhere; [None] keeps the exact clean-channel
   fast path. *)
type perturb = {
  noise_factor : int -> float;
  gain : sender:int -> receiver:int -> float;
}

(* Received power at plane position [at] from a transmitter at [from]. *)
let power_between t ~from ~at =
  let d = Point.dist from at in
  if d <= 0. then invalid_arg "Sinr.power_between: coincident points";
  t.config.Config.power /. (d ** t.config.Config.alpha)

(* Cached received power of the node link v -> u (same value as
   [power_between] on their positions, read from the gain table when the
   receiver's row is resident). *)
let power t ~sender ~receiver = Gain_cache.pair t.cache ~sender ~receiver

(* Total power arriving at [at] when exactly the nodes of [senders]
   transmit; [at] may be any plane position (Lemma 10.3 evaluates
   interference at arbitrary points i). *)
let interference_at t ~senders ~at =
  let pts = Lazy.force t.points in
  List.fold_left (fun acc s -> acc +. power_between t ~from:pts.(s) ~at) 0. senders

(* SINR of the link v -> u against the sender set (which must include v). *)
let link_sinr t ~senders ~sender:v ~receiver:u =
  let pts = Lazy.force t.points in
  let at = pts.(u) in
  let signal = power_between t ~from:pts.(v) ~at in
  let total = interference_at t ~senders ~at in
  signal /. (t.config.Config.noise +. total -. signal)

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                  *)
(* ------------------------------------------------------------------ *)

(* A slot's membership bytes ('\001' for a sender and, while
   [score_clean] runs, '\002' for a candidate listener) with its listener
   count, the candidates' ids in marking order (grown on first use by
   [score_clean]), and a row buffer for uncached gain rows.  Held in
   domain-local storage so Pool workers never share, with a busy flag so
   reentrant use (a perturb closure calling back into the simulator) gets
   fresh buffers instead of aliasing.  Taking and giving back are plain calls, not a wrapper
   around a closure, so a slot allocates nothing here; every taker gives
   back on every exit.  The invariant: [mark] is all-zero between
   uses (its users clear exactly the bytes they set, on every exit). *)
type sender_scratch = {
  mutable mark : Bytes.t;
  mutable listeners : int;  (* nodes left unmarked by [mark_senders] *)
  mutable cands : int array;
  mutable s_busy : bool;
}

type row_scratch = {
  mutable buf : Float.Array.t;
  mutable r_busy : bool;
}

let sender_key =
  Domain.DLS.new_key (fun () ->
      { mark = Bytes.empty; listeners = 0; cands = [||]; s_busy = false })

let row_key =
  Domain.DLS.new_key (fun () ->
      { buf = Float.Array.create 0; r_busy = false })

(* Zero the bytes of the first [nsend] ids: restores [mark]'s all-zero
   invariant in O(bytes set). *)
let clear_marks mark ids nsend =
  for i = 0 to nsend - 1 do
    Bytes.unsafe_set mark (Array.unsafe_get ids i) '\000'
  done

let check_senders ~who n ~ids ~nsend =
  for k = 0 to nsend - 1 do
    let s = Array.unsafe_get ids k in
    if s < 0 || s >= n then invalid_arg (who ^ ": sender out of range")
  done

(* Validate the senders [ids.(0 .. nsend-1)], take the sender scratch and
   mark them, counting the nodes left unmarked into [listeners].
   Validation comes first, so a raise takes nothing. *)
let mark_senders ~who t ~ids ~nsend =
  let n = Soa.length t.soa in
  check_senders ~who n ~ids ~nsend;
  let sc = Domain.DLS.get sender_key in
  let sc =
    if sc.s_busy then
      { mark = Bytes.make n '\000'; listeners = 0; cands = [||];
        s_busy = true }
    else begin
      sc.s_busy <- true;
      if Bytes.length sc.mark < n then sc.mark <- Bytes.make n '\000';
      sc
    end
  in
  let listeners = ref n in
  for k = 0 to nsend - 1 do
    let s = Array.unsafe_get ids k in
    if Bytes.unsafe_get sc.mark s = '\000' then decr listeners;
    Bytes.unsafe_set sc.mark s '\001'
  done;
  sc.listeners <- !listeners;
  sc

let unmark_senders sc ~ids ~nsend =
  clear_marks sc.mark ids nsend;
  sc.s_busy <- false

let take_row n =
  let rc = Domain.DLS.get row_key in
  if rc.r_busy then { buf = Float.Array.create n; r_busy = true }
  else begin
    rc.r_busy <- true;
    if Float.Array.length rc.buf < n then rc.buf <- Float.Array.create n;
    rc
  end

let give_row rc = rc.r_busy <- false

(* ------------------------------------------------------------------ *)
(* Decoded-sender buffers                                              *)
(* ------------------------------------------------------------------ *)

(* A slot's outcome in caller-owned, reusable form: the decoded sender
   per node (-1 = nothing) plus the ascending list of the nodes that
   decoded.  Kernels only append; [clear_decoded] restores the empty
   state in O(count), so a simulator resolves every slot without an
   O(n) allocation or an O(n) scan of the outcome. *)
type decoded = {
  sender : int array;
  receivers : int array;
  mutable count : int;
}

let create_decoded n =
  { sender = Array.make n (-1); receivers = Array.make n 0; count = 0 }

let clear_decoded d =
  for i = 0 to d.count - 1 do
    Array.unsafe_set d.sender (Array.unsafe_get d.receivers i) (-1)
  done;
  d.count <- 0

let[@inline] decode d u v =
  Array.unsafe_set d.sender u v;
  Array.unsafe_set d.receivers d.count u;
  d.count <- d.count + 1

(* ------------------------------------------------------------------ *)
(* Neighbour lists                                                     *)
(* ------------------------------------------------------------------ *)

(* [Soa.dist v u <= r], with the distance evaluated by the same float
   expression, on columns and a bound hoisted out of a caller's loop. *)
let[@inline] within xs ys v u r =
  let dx = Float.Array.unsafe_get xs v -. Float.Array.unsafe_get xs u
  and dy = Float.Array.unsafe_get ys v -. Float.Array.unsafe_get ys u in
  sqrt ((dx *. dx) +. (dy *. dy)) <= r

(* Is a single isolated transmission from v decodable at u?  Defines weak
   reachability: true iff d(v,u) <= R. *)
let in_range t v u = within (Soa.xs t.soa) (Soa.ys t.soa) v u t.range_bound

(* Every node's neighbour list ([near]), each from a cell-R [Grid_index]
   window of radius r' = r + 1e-9 (1 + r), r = [range_bound].  Built
   together the first time one is asked for (the index is dropped after)
   and published through one atomic cell: a racing domain builds
   identical lists, so a lost race wastes one build, never correctness.

   [v]'s list holds every node that can decode [v] in some clean slot.  A
   decode at u needs best >= beta (N + total - best) >= beta N: total >=
   best in floating point (the sum only adds non-negative terms, one of
   them best), and rounding is monotone.  The best power is the gain
   rows' P / d^alpha, each operation correctly rounded but libm's pow
   (within an ulp), so P / d^alpha >= beta N forces d <= R (1 + c u) for
   a small constant c and the unit roundoff u ~ 1.1e-16 — and R =
   Config.range carries a few ulps of its own.  The window's pad is
   relatively at least 1e-9, some 10^6 times that, and the window's own
   test (a squared distance against r'^2) is exact to a few ulps too.  So
   [v]'s possible decoders all lie in the list; the ring only adds a few
   listeners that are scored and decode nothing. *)
let build_near t =
  let r = t.range_bound and n = Soa.length t.soa in
  let g = Grid_index.of_columns ~cell:r (Soa.xs t.soa) (Soa.ys t.soa) in
  let buf = Array.make n 0 and ring = Array.make n 0
  and d2 = Float.Array.create n in
  Array.init n (fun v ->
      let k = Grid_index.within_node g v ~r:(r +. (1e-9 *. (1. +. r))) buf d2 in
      let inner = ref 0 and outer = ref 0 in
      for j = 0 to k - 1 do
        let u = buf.(j) in
        (* [within]'s test on the distance the index already took *)
        if sqrt (Float.Array.unsafe_get d2 j) <= r then begin
          buf.(!inner) <- u;
          incr inner
        end
        else begin
          ring.(!outer) <- u;
          incr outer
        end
      done;
      Grid_index.sort_ids buf !inner;
      Grid_index.sort_ids ring !outer;
      let near = Array.make (!inner + !outer) 0 in
      Array.blit buf 0 near 0 !inner;
      Array.blit ring 0 near !inner !outer;
      { near; split = !inner })

let near_of t v =
  match Atomic.get t.nbrs with
  | Some l -> Array.unsafe_get l v
  | None ->
    let l = build_near t in
    Atomic.set t.nbrs (Some l);
    Array.unsafe_get l v

let neighbours t v =
  if Option.is_some t.sparse then
    invalid_arg "Sinr.neighbours: the sparse kernel keeps no lists";
  let l = near_of t v in
  (l.near, l.split)

(* Every node [in_range] of [v] ([v] itself included), each once, in
   unspecified order — the telemetry's collision/silence split walks the
   union over a slot's senders.  The candidates come from a window that
   covers the range with room to spare and are filtered with [in_range]
   itself, so the set is exactly the predicate's.  With the sparse kernel
   installed its coarse-cell index supplies the window; otherwise it is
   the prefix of [v]'s neighbour list. *)
let iter_in_range t v f =
  match t.sparse with
  | Some sp -> Sparse.iter_within sp v ~radius:t.range_bound f
  | None ->
    let l = near_of t v in
    for i = 0 to l.split - 1 do
      f (Array.unsafe_get l.near i)
    done

(* ------------------------------------------------------------------ *)
(* Scoring kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* Listener [u]'s decoded sender, or [-1]: one row read, one pass over
   the sender array accumulating total power while tracking the
   strongest sender — only the strongest can pass the beta > 1 test.
   Sender order matches the seed kernel's list order, so the float
   accumulation (and therefore every decision) is bit-identical. *)
let[@inline] score_listener t ~ids ~nsend ~rowbuf u =
  let row = Gain_cache.row t.cache u ~ids ~nsend ~scratch:rowbuf in
  let total = ref 0. in
  let best = ref (-1) and best_pw = ref 0. in
  for k = 0 to nsend - 1 do
    let v = Array.unsafe_get ids k in
    let pw = Float.Array.unsafe_get row v in
    total := !total +. pw;
    if pw > !best_pw then begin
      best_pw := pw;
      best := v
    end
  done;
  let beta = t.config.Config.beta and noise = t.config.Config.noise in
  if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw) then
    !best
  else -1

(* The perturbed variant: adversarial gains multiply the cached
   clean-channel powers, exactly as the seed kernel multiplied the freshly
   computed ones.  A separate body, not a branch per sender inside
   [score_listener]: that branch cost the clean kernel ~20%. *)
let[@inline] score_listener_perturbed t p ~ids ~nsend ~rowbuf u =
  let row = Gain_cache.row t.cache u ~ids ~nsend ~scratch:rowbuf in
  let total = ref 0. in
  let best = ref (-1) and best_pw = ref 0. in
  for k = 0 to nsend - 1 do
    let v = Array.unsafe_get ids k in
    let pw = Float.Array.unsafe_get row v *. p.gain ~sender:v ~receiver:u in
    total := !total +. pw;
    if pw > !best_pw then begin
      best_pw := pw;
      best := v
    end
  done;
  let beta = t.config.Config.beta in
  let noise = t.config.Config.noise *. p.noise_factor u in
  if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw) then
    !best
  else -1

(* Score the candidates [among.(lo..hi)] (non-senders), recording decodes
   into [out] in candidate order. *)
let score_among t ~ids ~nsend ~among ~out ~lo ~hi =
  let rc = take_row (Soa.length t.soa) in
  match
    for i = lo to hi do
      let u = Array.unsafe_get among i in
      let v = score_listener t ~ids ~nsend ~rowbuf:rc.buf u in
      if v >= 0 then decode out u v
    done
  with
  | () -> give_row rc
  | exception e ->
    give_row rc;
    raise e

(* Score every non-sender under the perturbation [p], in ascending
   order. *)
let score_all_perturbed t p ~ids ~nsend ~mark ~out =
  let rc = take_row (Soa.length t.soa) in
  match
    for u = 0 to Soa.length t.soa - 1 do
      if Bytes.unsafe_get mark u = '\000' then begin
        let v = score_listener_perturbed t p ~ids ~nsend ~rowbuf:rc.buf u in
        if v >= 0 then decode out u v
      end
    done
  with
  | () -> give_row rc
  | exception e ->
    give_row rc;
    raise e

(* Fan the candidates [among.(0 .. len-1)] out over the shared pool:
   chunk [c] covers the positions [lo..hi] and records its decodes into
   its own slice of [out.receivers] (which starts at [lo] and has room for
   every candidate of the chunk); the slices are then packed in chunk
   order, so the outcome is bit-identical whatever the jobs count.
   Workers only read [among], which the calling domain owns for the
   duration of the call. *)
let score_parallel t pool ~ids ~nsend ~among ~out ~len =
  let jobs = Pool.jobs pool in
  let csize = max 64 ((len + (jobs * 4) - 1) / (jobs * 4)) in
  let nchunks = (len + csize - 1) / csize in
  let counts =
    Pool.mapi ~chunk:1 pool ~n:nchunks (fun c ->
        let lo = c * csize in
        let hi = min (len - 1) (lo + csize - 1) in
        let slice = { out with count = lo } in
        score_among t ~ids ~nsend ~among ~out:slice ~lo ~hi;
        slice.count - lo)
  in
  Array.iteri
    (fun c k ->
      Array.blit out.receivers (c * csize) out.receivers out.count k;
      out.count <- out.count + k)
    counts

(* Sort [a.(0 .. len-1)] ascending in place: Shell sort with Knuth's
   gaps, no allocation.  The decodes of a clean slot are a few ascending
   runs (two per sender's neighbour list: its in-range prefix and its
   ring), on which the final insertion pass does nearly all the work. *)
let sort_prefix (a : int array) len =
  let h = ref 1 in
  while !h < len / 3 do
    h := (3 * !h) + 1
  done;
  while !h >= 1 do
    let gap = !h in
    for i = gap to len - 1 do
      let x = Array.unsafe_get a i in
      let j = ref i in
      while !j >= gap && Array.unsafe_get a (!j - gap) > x do
        Array.unsafe_set a !j (Array.unsafe_get a (!j - gap));
        j := !j - gap
      done;
      Array.unsafe_set a !j x
    done;
    h := gap / 3
  done

(* A clean exact slot.  Only a listener on some sender's neighbour list
   can decode (see [build_near]), so those are collected (once each,
   marked '\002' and listed in [sc.cands]) and scored by
   [score_listener] — on the calling domain, or over the pool from
   [par_threshold] nodes on when it has more than one job — everyone else
   decodes nothing, and the decodes are sorted: the outcome is
   bit-identical to scoring every listener in id order.  Returns the
   number of listeners scored. *)
let score_clean t sc ~ids ~nsend ~out =
  let n = Soa.length t.soa in
  if Array.length sc.cands < n then sc.cands <- Array.make n 0;
  let mark = sc.mark and cands = sc.cands in
  let scored = ref 0 and k = ref 0 in
  match
    (* Once every listener is a candidate, no list can add one. *)
    while !k < nsend && !scored < sc.listeners do
      let l = (near_of t (Array.unsafe_get ids !k)).near in
      for i = 0 to Array.length l - 1 do
        let u = Array.unsafe_get l i in
        if Bytes.unsafe_get mark u = '\000' then begin
          Bytes.unsafe_set mark u '\002';
          Array.unsafe_set cands !scored u;
          incr scored
        end
      done;
      incr k
    done;
    let len = !scored in
    if len > 0 then begin
      if n >= par_threshold && Pool.default_jobs () > 1 then
        score_parallel t (Pool.get ()) ~ids ~nsend ~among:cands ~out ~len
      else score_among t ~ids ~nsend ~among:cands ~out ~lo:0 ~hi:(len - 1);
      sort_prefix out.receivers out.count
    end
  with
  | () ->
    clear_marks mark cands !scored;
    !scored
  | exception e ->
    clear_marks mark cands !scored;
    raise e

(* Whole-slot resolution over the sender set [ids.(0 .. nsend-1)], marked
   in [sc] ([sc.listeners] nodes unmarked), into [out] (which must be
   empty).  Dispatch: perturbed slots run the sequential perturbed kernel
   over every listener (adversary closures are not required to be
   domain-safe, and gains above 1 void the neighbour-list argument);
   clean slots run the sparse kernel when it is installed and otherwise
   [score_clean]. *)
let resolve_marked ?perturb t sc ~ids ~nsend ~out =
  if nsend > 0 then begin
    let telemetry = Metrics.is_enabled () in
    if telemetry then Metrics.incr m_resolve_calls;
    (* The number of listeners scored; [-1] when the sparse kernel ran
       (it counts its own links). *)
    let scored =
      match perturb with
      | Some p ->
        score_all_perturbed t p ~ids ~nsend ~mark:sc.mark ~out;
        sc.listeners
      | None -> (
        match t.sparse with
        | Some sp ->
          (* Listeners found from the senders' neighbourhoods, exact
             silence, shared per-coarse-cell far sums computed only where
             a decision needs them.  Timed as a profiler sub-stage,
             reported inside Resolve. *)
          let p0 = Profile.start () in
          out.count <-
            Sparse.resolve sp ~ids ~nsend ~listeners:sc.listeners
              ~mark:sc.mark ~sender:out.sender ~receivers:out.receivers;
          Profile.stop Profile.Sparse p0;
          -1
        | None -> score_clean t sc ~ids ~nsend ~out)
    in
    if telemetry && scored >= 0 then begin
      Metrics.add m_resolve_links (scored * nsend);
      Metrics.add m_resolve_silent (sc.listeners - scored)
    end
  end

(* The simulator's entry point: the first [nsenders] entries of
   [senders] transmit (the array is only read); decodes land in [out],
   which must be empty on entry and which the caller empties again with
   [clear_decoded] once it has consumed them.  If resolution raises,
   [out] is emptied here. *)
let resolve_into ?perturb t ~senders ~nsenders out =
  let n = Soa.length t.soa in
  if nsenders < 0 || nsenders > Array.length senders then
    invalid_arg "Sinr.resolve_into: nsenders out of bounds";
  if Array.length out.sender < n || Array.length out.receivers < n then
    invalid_arg "Sinr.resolve_into: buffers shorter than the node count";
  let sc = mark_senders ~who:"Sinr.resolve" t ~ids:senders ~nsend:nsenders in
  match resolve_marked ?perturb t sc ~ids:senders ~nsend:nsenders ~out with
  | () -> unmark_senders sc ~ids:senders ~nsend:nsenders
  | exception e ->
    unmark_senders sc ~ids:senders ~nsend:nsenders;
    clear_decoded out;
    raise e

(* Per-domain decoded buffers for the option-array wrappers below (same
   busy-flag pattern as the sender scratch). *)
type decoded_scratch = { mutable d : decoded; mutable d_busy : bool }

let decoded_key =
  Domain.DLS.new_key (fun () -> { d = create_decoded 0; d_busy = false })

let with_decoded ~n f =
  let dc = Domain.DLS.get decoded_key in
  if dc.d_busy then f (create_decoded n)
  else begin
    dc.d_busy <- true;
    if Array.length dc.d.sender < n then dc.d <- create_decoded n;
    Fun.protect
      ~finally:(fun () ->
        clear_decoded dc.d;
        dc.d_busy <- false)
      (fun () -> f dc.d)
  end

let to_options ~n d =
  let result = Array.make n None in
  for i = 0 to d.count - 1 do
    let u = d.receivers.(i) in
    result.(u) <- Some d.sender.(u)
  done;
  result

(* Resolve a whole slot: for every node, the sender it decodes (None for
   transmitters and for listeners that decode nothing).  O(|S| * n) on
   the exact kernels.  [perturb] applies the slot's adversarial channel
   state; omitting it is the clean-channel fast path. *)
let resolve_array ?perturb t ~senders ~nsenders =
  let n = Soa.length t.soa in
  with_decoded ~n (fun out ->
      resolve_into ?perturb t ~senders ~nsenders out;
      to_options ~n out)

let resolve ?perturb t ~senders =
  let senders = Array.of_list senders in
  resolve_array ?perturb t ~senders ~nsenders:(Array.length senders)

(* Single-listener reception: the senders, on an array of their own, are
   validated as for [resolve_into]; then one row read and one scoring
   pass, so a perturbation sees this receiver's links only. *)
let reception ?perturb t ~senders ~receiver:u =
  let n = Soa.length t.soa in
  if u < 0 || u >= n then invalid_arg "Sinr.reception: receiver out of range";
  let ids = Array.of_list senders in
  let nsend = Array.length ids in
  check_senders ~who:"Sinr.reception" n ~ids ~nsend;
  if nsend = 0 || Array.exists (( = ) u) ids then None
  else begin
    let rc = take_row n in
    match
      match perturb with
      | None -> score_listener t ~ids ~nsend ~rowbuf:rc.buf u
      | Some p -> score_listener_perturbed t p ~ids ~nsend ~rowbuf:rc.buf u
    with
    | v ->
      give_row rc;
      if v >= 0 then Some v else None
    | exception e ->
      give_row rc;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Seed kernel, kept verbatim                                          *)
(* ------------------------------------------------------------------ *)

(* The pre-cache implementation: re-derives every link power (a sqrt and a
   libm pow per pair).  The fast path above must stay bit-identical to
   this; the equivalence is asserted by the phys_fast property suite and
   measured by `bench/main.exe phys`. *)
let resolve_reference ?perturb t ~senders =
  let pts = Lazy.force t.points in
  let n = Array.length pts in
  let is_sender = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Sinr.resolve: sender out of range";
      is_sender.(s) <- true)
    senders;
  let result = Array.make n None in
  let beta = t.config.Config.beta and noise = t.config.Config.noise in
  (match perturb with
   | None ->
     for u = 0 to n - 1 do
       if not is_sender.(u) then begin
         let at = pts.(u) in
         let total = ref 0. in
         let best = ref (-1) and best_pw = ref 0. in
         List.iter
           (fun v ->
             let pw = power_between t ~from:pts.(v) ~at in
             total := !total +. pw;
             if pw > !best_pw then begin
               best_pw := pw;
               best := v
             end)
           senders;
         if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
         then result.(u) <- Some !best
       end
     done
   | Some p ->
     for u = 0 to n - 1 do
       if not is_sender.(u) then begin
         let at = pts.(u) in
         let total = ref 0. in
         let best = ref (-1) and best_pw = ref 0. in
         List.iter
           (fun v ->
             let pw =
               power_between t ~from:pts.(v) ~at
               *. p.gain ~sender:v ~receiver:u
             in
             total := !total +. pw;
             if pw > !best_pw then begin
               best_pw := pw;
               best := v
             end)
           senders;
         let noise = noise *. p.noise_factor u in
         if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
         then result.(u) <- Some !best
       end
     done);
  result
