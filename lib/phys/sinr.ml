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
   caller-owned [decoded] buffers (no per-slot n-array), perturbed gains
   multiply the cached clean-channel power, and listeners fan out over
   [Sinr_par.Pool] past [Phys_tuning.par_threshold].  Each node keeps one
   neighbour list (its [in_range] set, then a thin boundary ring; see
   [build_near]): [iter_in_range] walks it, and clean slots score only the
   listeners on some sender's list (beta > 1 makes everyone else silent,
   see [score_clean]) unless those lists cover the listeners anyway.  From
   [Phys_tuning.sparse_threshold] nodes on, [Sparse] (the one approximate
   kernel, eps-bounded far interference) resolves clean slots instead and
   the gain cache is bypassed.
   [resolve_reference] keeps the seed kernel verbatim so tests and benches
   can assert the equivalence. *)

open Sinr_geom
open Sinr_par
open Sinr_obs

let m_resolve_calls = Metrics.counter "phys.resolve.calls"
let m_resolve_links = Metrics.counter "phys.resolve.links"
let m_resolve_silent = Metrics.counter "phys.resolve.silent_listeners"
let m_resolve_ns = Metrics.histogram "phys.resolve.ns"

type t = {
  config : Config.t;
  soa : Soa.t;  (* hot state: flat position columns, read by every kernel *)
  points : Point.t array Lazy.t;
      (* boxed record view, forced only by geometry/graph consumers
         (Induced, Spec_check, the experiments) — never by the hot path *)
  cache : Gain_cache.t;
  sparse : Sparse.t option;
  par_threshold : int;
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
   (lazily, so the column-first path at n = 10^6 never boxes a point). *)
let make config soa points =
  (* Tuning knobs are captured here: flipping them later never changes an
     existing simulator. *)
  (* Large simulators install the sparse cell-aggregated path, which
     reads neither the gain cache nor the neighbour lists. *)
  let sparse = Soa.length soa >= Phys_tuning.sparse_threshold () in
  { config;
    soa;
    points;
    cache =
      Gain_cache.create config soa
        ~cap_bytes:(Phys_tuning.cache_cap_bytes ()) ~bypass:sparse;
    sparse =
      (if sparse then
         Some (Sparse.create config soa ~eps:(Phys_tuning.sparse_eps ()))
       else None);
    par_threshold = Phys_tuning.par_threshold ();
    range_bound = Config.range config +. 1e-12;
    nbrs = Atomic.make None }

let validate_min_dist ~who soa =
  let dmin = Placement.min_pairwise_dist_xy (Soa.xs soa) (Soa.ys soa) in
  if dmin < 1. -. 1e-9 then
    invalid_arg
      (Fmt.str "%s: min pairwise distance %.4g violates the \
                near-field normalization (must be >= 1)" who dmin)

let create config points =
  if Array.length points = 0 then invalid_arg "Sinr.create: no nodes";
  let soa = Soa.of_points points in
  validate_min_dist ~who:"Sinr.create" soa;
  make config soa (Lazy.from_val points)

(* Column-first constructor (streaming placements at large n).  [check]
   defaults to true; generators that guarantee the min-distance invariant
   by construction pass [~check:false] to skip the O(n) validation pass. *)
let create_soa ?(check = true) config soa =
  if Soa.length soa = 0 then invalid_arg "Sinr.create_soa: no nodes";
  if check then validate_min_dist ~who:"Sinr.create_soa" soa;
  make config soa (lazy (Soa.to_points soa))

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

(* Sender ids + membership bitmap, the candidate listeners of a clean
   exact slot (a bitmap plus their ids in marking order, grown on first
   use by [score_clean]), and a row buffer for uncached gain rows.  Held
   in domain-local storage so Pool workers never share, with a busy flag
   so reentrant use (a perturb closure calling back into reception) falls
   back to fresh allocations instead of aliasing; the [with_*] wrappers
   drop the flag on every exit (a match on the exception rather than
   Fun.protect, whose two closures per call show in a per-slot path).
   The bitmap invariant: both bitmaps are all-zero between uses (their
   users clear exactly the bits they set, on every exit). *)
type sender_scratch = {
  mutable ids : int array;
  mutable mark : Bytes.t;
  mutable cand : Bytes.t;
  mutable cands : int array;
  mutable s_busy : bool;
}

type row_scratch = {
  mutable buf : Float.Array.t;
  mutable r_busy : bool;
}

let sender_key =
  Domain.DLS.new_key (fun () ->
      { ids = [||]; mark = Bytes.empty; cand = Bytes.empty; cands = [||];
        s_busy = false })

let row_key =
  Domain.DLS.new_key (fun () ->
      { buf = Float.Array.create 0; r_busy = false })

let with_senders ~count ~n f =
  let sc = Domain.DLS.get sender_key in
  if sc.s_busy then
    f { ids = Array.make (max 1 count) 0;
        mark = Bytes.make n '\000';
        cand = Bytes.empty;
        cands = [||];
        s_busy = true }
  else begin
    sc.s_busy <- true;
    if Array.length sc.ids < count then sc.ids <- Array.make count 0;
    if Bytes.length sc.mark < n then sc.mark <- Bytes.make n '\000';
    match f sc with
    | r ->
      sc.s_busy <- false;
      r
    | exception e ->
      sc.s_busy <- false;
      raise e
  end

(* Unset the bits of the first [nsend] ids: restores a bitmap's all-zero
   invariant in O(bits set). *)
let clear_marks mark ids nsend =
  for i = 0 to nsend - 1 do
    Bytes.unsafe_set mark (Array.unsafe_get ids i) '\000'
  done

let with_row ~n f =
  let rc = Domain.DLS.get row_key in
  if rc.r_busy then f (Float.Array.create n)
  else begin
    rc.r_busy <- true;
    if Float.Array.length rc.buf < n then rc.buf <- Float.Array.create n;
    match f rc.buf with
    | r ->
      rc.r_busy <- false;
      r
    | exception e ->
      rc.r_busy <- false;
      raise e
  end

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

(* Score the non-senders among listeners [lo..hi], recording decodes into
   [out] in ascending order. *)
let score_range t ~ids ~nsend ~mark ~rowbuf ~out ~lo ~hi =
  for u = lo to hi do
    if Bytes.unsafe_get mark u = '\000' then begin
      let v = score_listener t ~ids ~nsend ~rowbuf u in
      if v >= 0 then decode out u v
    end
  done

(* Score the candidates [among.(lo..hi)] (non-senders), recording decodes
   into [out] in candidate order. *)
let score_among t ~ids ~nsend ~among ~rowbuf ~out ~lo ~hi =
  for i = lo to hi do
    let u = Array.unsafe_get among i in
    let v = score_listener t ~ids ~nsend ~rowbuf u in
    if v >= 0 then decode out u v
  done

(* Score every non-sender under the perturbation [p], in ascending
   order. *)
let score_all_perturbed t p ~ids ~nsend ~mark ~rowbuf ~out =
  for u = 0 to Soa.length t.soa - 1 do
    if Bytes.unsafe_get mark u = '\000' then begin
      let v = score_listener_perturbed t p ~ids ~nsend ~rowbuf u in
      if v >= 0 then decode out u v
    end
  done

(* Fan listener positions [0..len-1] (node ids, or with [among] indices
   into a candidate list) out over the shared pool: chunk [c] covers the
   positions [lo..hi] and records its decodes into its own slice of
   [out.receivers] (which starts at [lo] and has room for every listener
   of the chunk); the slices are then packed in chunk order, so the
   outcome is bit-identical whatever the jobs count.  Workers only read
   [mark] and [among], which the calling domain owns for the duration of
   the call. *)
let score_parallel t pool ~ids ~nsend ~mark ?among ~out ~len () =
  let n = Soa.length t.soa in
  let jobs = Pool.jobs pool in
  let csize = max 64 ((len + (jobs * 4) - 1) / (jobs * 4)) in
  let nchunks = (len + csize - 1) / csize in
  let counts =
    Pool.mapi ~chunk:1 pool ~n:nchunks (fun c ->
        let lo = c * csize in
        let hi = min (len - 1) (lo + csize - 1) in
        let slice = { out with count = lo } in
        with_row ~n (fun rowbuf ->
            match among with
            | None -> score_range t ~ids ~nsend ~mark ~rowbuf ~out:slice ~lo ~hi
            | Some among ->
              score_among t ~ids ~nsend ~among ~rowbuf ~out:slice ~lo ~hi);
        slice.count - lo)
  in
  Array.iteri
    (fun c k ->
      Array.blit out.receivers (c * csize) out.receivers out.count k;
      out.count <- out.count + k)
    counts

(* Sort [a.(0 .. len-1)] ascending in place: Shell sort with Knuth's
   gaps, no allocation.  The decodes of a list-limited slot are a few
   ascending runs (two per sender's neighbour list: its in-range prefix
   and its ring), on which the final insertion pass does nearly all the
   work. *)
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

(* A clean exact slot, limited to the senders' neighbour lists.  Only a
   listener on some sender's list can decode (see [build_near]), so those
   are collected (once each, into [sc.cand]/[sc.cands]) and scored by
   [score_listener], everyone else decodes nothing, and the decodes are
   sorted — the outcome is bit-identical to scoring all [listeners] in id
   order.  When the lists (less each sender itself) hold at least
   [listeners] entries, collecting costs more than it saves and every
   listener is scored instead.  Returns the number of listeners
   scored. *)
let score_clean t sc ~ids ~nsend ~listeners ~out =
  let n = Soa.length t.soa in
  let mark = sc.mark in
  let pool =
    if n >= t.par_threshold && Pool.default_jobs () > 1 then
      Some (Pool.get ())
    else None
  in
  let score ?among len =
    match pool with
    | Some pool when Pool.jobs pool > 1 ->
      score_parallel t pool ~ids ~nsend ~mark ?among ~out ~len ()
    | Some _ | None ->
      let hi = len - 1 in
      with_row ~n (fun rowbuf ->
          match among with
          | None -> score_range t ~ids ~nsend ~mark ~rowbuf ~out ~lo:0 ~hi
          | Some among ->
            score_among t ~ids ~nsend ~among ~rowbuf ~out ~lo:0 ~hi)
  in
  let entries = ref 0 and k = ref 0 in
  while !k < nsend && !entries < listeners do
    let l = near_of t (Array.unsafe_get ids !k) in
    entries := !entries + Array.length l.near - 1;
    incr k
  done;
  if !entries >= listeners then begin
    score n;
    listeners
  end
  else begin
    if Bytes.length sc.cand < n then begin
      sc.cand <- Bytes.make n '\000';
      sc.cands <- Array.make n 0
    end;
    let cand = sc.cand and cands = sc.cands in
    let scored = ref 0 in
    match
      for k = 0 to nsend - 1 do
        let l = (near_of t (Array.unsafe_get ids k)).near in
        for i = 0 to Array.length l - 1 do
          let u = Array.unsafe_get l i in
          if Bytes.unsafe_get mark u = '\000'
             && Bytes.unsafe_get cand u = '\000'
          then begin
            Bytes.unsafe_set cand u '\001';
            Array.unsafe_set cands !scored u;
            incr scored
          end
        done
      done;
      if !scored > 0 then begin
        score ~among:cands !scored;
        sort_prefix out.receivers out.count
      end
    with
    | () ->
      clear_marks cand cands !scored;
      !scored
    | exception e ->
      clear_marks cand cands !scored;
      raise e
  end

(* Whole-slot resolution over the sender set [ids.(0 .. nsend-1)], marked
   in [sc.mark] ([listeners] nodes unmarked), into [out] (which must be
   empty).  Dispatch: perturbed slots run the sequential perturbed kernel
   over every listener (adversary closures are not required to be
   domain-safe, and gains above 1 void the neighbour-list argument);
   clean slots run the sparse kernel when it is installed and otherwise
   the list-limited cached kernel, which fans listeners out over the
   shared pool past the parallelism threshold. *)
let resolve_marked ?perturb t sc ~ids ~nsend ~listeners ~out =
  let n = Soa.length t.soa in
  if nsend > 0 then begin
    let telemetry = Metrics.is_enabled () in
    (* The number of listeners scored; [-1] when the sparse kernel ran
       (it counts its own links). *)
    let run () =
      match perturb with
      | Some p ->
        with_row ~n (fun rowbuf ->
            score_all_perturbed t p ~ids ~nsend ~mark:sc.mark ~rowbuf ~out);
        listeners
      | None ->
        (match t.sparse with
         | Some sp ->
           (* Auto-installed sparse path (n >= Phys_tuning.sparse_threshold):
              listeners found from the senders' neighbourhoods, exact
              silence, shared per-coarse-cell far sums computed only where
              a decision needs them.  Timed as a profiler sub-stage,
              reported inside Resolve. *)
           let p0 = Profile.start () in
           out.count <-
             Sparse.resolve sp ~ids ~nsend ~listeners ~mark:sc.mark
               ~sender:out.sender ~receivers:out.receivers;
           Profile.stop Profile.Sparse p0;
           -1
         | None -> score_clean t sc ~ids ~nsend ~listeners ~out)
    in
    if telemetry then begin
      Metrics.incr m_resolve_calls;
      let r = Timer.start () in
      let scored = run () in
      Metrics.observe m_resolve_ns ((Timer.stop r).Timer.wall_s *. 1e9);
      (* Links actually scored; the sparse kernel counts its own. *)
      if scored >= 0 then begin
        Metrics.add m_resolve_links (scored * nsend);
        Metrics.add m_resolve_silent (listeners - scored)
      end
    end
    else ignore (run () : int)
  end

(* Copy + validate the sender list into scratch, then set the membership
   bitmap.  Validation happens before any bit is set, so a raise leaves
   the bitmap invariant (all-zero) intact. *)
let load_senders ~who ~n sc senders =
  let k = ref 0 in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg (who ^ ": sender out of range");
      sc.ids.(!k) <- s;
      incr k)
    senders;
  for i = 0 to !k - 1 do
    Bytes.unsafe_set sc.mark sc.ids.(i) '\001'
  done;
  !k

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
  for k = 0 to nsenders - 1 do
    let s = Array.unsafe_get senders k in
    if s < 0 || s >= n then invalid_arg "Sinr.resolve: sender out of range"
  done;
  with_senders ~count:0 ~n @@ fun sc ->
  let listeners = ref n in
  for k = 0 to nsenders - 1 do
    let s = Array.unsafe_get senders k in
    if Bytes.unsafe_get sc.mark s = '\000' then decr listeners;
    Bytes.unsafe_set sc.mark s '\001'
  done;
  match
    resolve_marked ?perturb t sc ~ids:senders ~nsend:nsenders
      ~listeners:!listeners ~out
  with
  | () -> clear_marks sc.mark senders nsenders
  | exception e ->
    clear_marks sc.mark senders nsenders;
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

(* Single-listener reception through the same kernel: O(|S|) to mark the
   membership bitmap (the test [u in senders] is then O(1)), one row read,
   one scoring pass. *)
let reception ?perturb t ~senders ~receiver:u =
  let n = Soa.length t.soa in
  if u < 0 || u >= n then invalid_arg "Sinr.reception: receiver out of range";
  let count = List.length senders in
  with_senders ~count ~n @@ fun sc ->
  let nsend = load_senders ~who:"Sinr.reception" ~n sc senders in
  Fun.protect
    ~finally:(fun () -> clear_marks sc.mark sc.ids nsend)
    (fun () ->
      if Bytes.get sc.mark u <> '\000' || nsend = 0 then None
      else
        with_row ~n @@ fun rowbuf ->
        let v =
          match perturb with
          | None -> score_listener t ~ids:sc.ids ~nsend ~rowbuf u
          | Some p -> score_listener_perturbed t p ~ids:sc.ids ~nsend ~rowbuf u
        in
        if v >= 0 then Some v else None)

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
