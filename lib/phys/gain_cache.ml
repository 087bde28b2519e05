(* Precomputed pairwise received-power table.

   The point set of a [Sinr.t] is frozen for the life of the simulator, so
   the received power P/d(v,u)^alpha of every ordered pair is a constant of
   the deployment — yet the seed kernel re-derived it (a sqrt plus a libm
   pow) for every (sender, listener) pair of every slot.  This module
   stores the n x n table once, as flat unboxed rows.

   Bit-identity contract: a cached entry is produced by evaluating exactly
   the seed expression

       power /. (Point.dist points.(v) points.(u) ** alpha)

   (read off the [Soa] columns, whose [dist] is bit-identical to
   [Point.dist]) so reading the cache can never change a resolution
   outcome, a seeded experiment number or a Spec_check verdict.  The
   diagonal is stored as 0 and never read (a node is either the listener
   or a sender, and half-duplex listeners skip themselves).

   Memory: [Sinr] bypasses the cache outright exactly when it installs
   the sparse kernel — no row-pointer array, no atomics, every lookup
   evaluates the seed formula directly; an n x n table is quadratic by
   design, that kernel never reads it, and a perturbed slot there needs
   only its senders' entries.  The decision is counted once per create on
   [phys.cache.bypassed].  Otherwise rows fill lazily (first touch wins)
   until the byte budget ([cap_bytes]; [Sinr] passes
   [default_cap_bytes], 64 MiB) is spent; past it only the slot's sender
   entries are computed into the caller's per-domain scratch buffer (the
   kernels read no others) and nothing is retained.  No other size limit
   is needed: 64 MiB holds the whole table only below n ~ 2,900 anyway.
   Row publication goes through an [Atomic.t] per row, so concurrent Pool
   workers (the Reliability Monte-Carlo) either see a fully initialized
   row or build their own — a lost race wastes one row fill of identical
   values, never correctness.

   Telemetry (when Sinr_obs.Metrics is enabled): phys.cache.hits,
   phys.cache.fills (rows retained), phys.cache.scratch_rows (partial
   rows recomputed past the cap, one per listener), phys.cache.bypassed
   (caches refused because the sparse kernel is installed). *)

open Sinr_obs

let m_hits = Metrics.counter "phys.cache.hits"
let m_fills = Metrics.counter "phys.cache.fills"
let m_scratch = Metrics.counter "phys.cache.scratch_rows"
let m_bypassed = Metrics.counter "phys.cache.bypassed"

let default_cap_bytes = 64 * 1024 * 1024

type t = {
  power : float;
  alpha : float;
  soa : Soa.t;
  n : int;
  bypassed : bool;  (* the sparse kernel is installed: no rows, ever *)
  rows : Float.Array.t option Atomic.t array;  (* empty when bypassed *)
  reserved : int Atomic.t;  (* rows admitted against the cap *)
  max_rows : int;
}

let create (config : Config.t) soa ~cap_bytes ~bypass:bypassed =
  let n = Soa.length soa in
  let row_bytes = max 1 (n * 8) in
  (* Refuse before allocating anything: at sparse scale even the
     row-pointer array (n words + n atomics) is waste. *)
  if bypassed then Metrics.incr m_bypassed;
  { power = config.Config.power;
    alpha = config.Config.alpha;
    soa;
    n;
    bypassed;
    rows = (if bypassed then [||] else Array.init n (fun _ -> Atomic.make None));
    reserved = Atomic.make 0;
    max_rows = (if bypassed then 0 else max 0 (cap_bytes / row_bytes)) }

let n t = t.n
let max_rows t = t.max_rows
let bypassed t = t.bypassed

let rows_cached t = min t.max_rows (Atomic.get t.reserved)

let bytes_cached t = rows_cached t * t.n * 8

(* The seed formula, verbatim (Sinr.power_between inlined on node pairs). *)
let compute t ~sender:v ~receiver:u = t.power /. (Soa.dist t.soa v u ** t.alpha)

(* Per-pair loop: the columns are indexed in place (a call into [Soa]
   would box every distance), with [Soa.dist_to]'s exact expression. *)
let fill_into t u (dst : Float.Array.t) =
  let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
  let ux = Float.Array.get xs u and uy = Float.Array.get ys u in
  for v = 0 to t.n - 1 do
    Float.Array.unsafe_set dst v
      (if v = u then 0.
       else begin
         let dx = Float.Array.unsafe_get xs v -. ux
         and dy = Float.Array.unsafe_get ys v -. uy in
         t.power /. (sqrt ((dx *. dx) +. (dy *. dy)) ** t.alpha)
       end)
  done

(* Past the cap only the listener's sender entries are filled: the same
   expression as [fill_into], over [ids.(0 .. nsend-1)] instead of 0..n-1
   (the kernels never list the listener itself as a sender). *)
let fill_ids t u ~ids ~nsend (dst : Float.Array.t) =
  let xs = Soa.xs t.soa and ys = Soa.ys t.soa in
  let ux = Float.Array.get xs u and uy = Float.Array.get ys u in
  for k = 0 to nsend - 1 do
    let v = Array.unsafe_get ids k in
    let dx = Float.Array.unsafe_get xs v -. ux
    and dy = Float.Array.unsafe_get ys v -. uy in
    Float.Array.unsafe_set dst v
      (t.power /. (sqrt ((dx *. dx) +. (dy *. dy)) ** t.alpha))
  done

(* Admit one more row against the byte budget. *)
let rec reserve t =
  let c = Atomic.get t.reserved in
  c < t.max_rows
  && (Atomic.compare_and_set t.reserved c (c + 1) || reserve t)

let row t u ~ids ~nsend ~scratch =
  if t.bypassed then begin
    Metrics.incr m_scratch;
    fill_ids t u ~ids ~nsend scratch;
    scratch
  end
  else
    match Atomic.get t.rows.(u) with
    | Some r ->
      Metrics.incr m_hits;
      r
    | None ->
      if reserve t then begin
        let r = Float.Array.create t.n in
        fill_into t u r;
        Atomic.set t.rows.(u) (Some r);
        Metrics.incr m_fills;
        r
      end
      else begin
        Metrics.incr m_scratch;
        fill_ids t u ~ids ~nsend scratch;
        scratch
      end

(* Single-pair lookup (engine delivery power): O(1) when the receiver's
   row is resident, otherwise one direct evaluation — never a row fill. *)
let pair t ~sender ~receiver =
  if t.bypassed then compute t ~sender ~receiver
  else
    match Atomic.get t.rows.(receiver) with
    | Some r ->
      Metrics.incr m_hits;
      Float.Array.get r sender
    | None -> compute t ~sender ~receiver
