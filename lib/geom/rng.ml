(* Deterministic, splittable random streams.

   Every randomized component in this project draws from an explicit [Rng.t]
   so that simulations are reproducible from a single integer seed and so
   that independent components (e.g. each node of a network) can own
   statistically independent streams derived from the parent seed. *)

type t = { state : Random.State.t; seed : int }

let create seed = { state = Random.State.make [| seed |]; seed }

let seed t = t.seed

(* Mix two integers into a new seed.  A fixed odd multiplier with xor-shift
   finalization (SplitMix64-style) keeps derived streams well separated even
   for consecutive keys. *)
let mix a b =
  let h = ref (a * 0x9E3779B1 + b + 0x85EBCA6B) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x21F0AAAD;
  h := !h lxor (!h lsr 15);
  h := !h * 0x735A2D97;
  h := !h lxor (!h lsr 15);
  !h land max_int

let split t ~key = create (mix t.seed key)

let split_name t ~name = split t ~key:(Hashtbl.hash name)

let int t bound = Random.State.int t.state bound

let float t bound = Random.State.float t.state bound

let bool t = Random.State.bool t.state

(* [Random.State.float s 1.0] is [n * 2^-53] for the top 53 bits [n] of
   the next 64-bit output, redrawn while [n = 0].  This is that [n], as an
   int: nothing is boxed on the way. *)
let rec bits53 t =
  let n =
    Int64.to_int (Int64.shift_right_logical (Random.State.bits64 t.state) 11)
  in
  if n <> 0 then n else bits53 t

(* Bernoulli trial with success probability [p] (clamped to [0,1]):
   [Random.State.float t.state 1.0 < p] on raw bits.  Scaling both sides
   by 2^53 is exact (n < 2^53 converts exactly, and p * 2^53 neither
   overflows nor loses a bit), so the outcome and the state advance are
   those of the float draw, without allocating its boxed result. *)
let[@inline] below t p =
  if p <= 0. then false
  else if p >= 1. then true
  else Float.of_int (bits53 t) < p *. 0x1p53

let bernoulli t p = below t p

let bernoulli_at t ps i = below t (Float.Array.get ps i)

(* Uniform integer in the inclusive range [lo, hi]. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + Random.State.int t.state (hi - lo + 1)

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Random.State.int t.state (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(Random.State.int t.state (Array.length arr))

(* ------------------------------------------------------------------ *)
(* Pure (stateless) hash draws                                         *)
(* ------------------------------------------------------------------ *)

(* Per-event draws keyed by integers, with no state allocation: the value
   depends only on (seed, k1, k2).  Channel perturbations (per-slot
   per-link fading, jamming phases) need millions of independent draws per
   run; materializing a [Random.State.t] for each would dominate the
   simulation, and sequential draws would make the value depend on
   evaluation order.  The quality of [mix]'s SplitMix-style finalizer is
   plenty for simulation noise. *)

let hash_unit t k1 k2 =
  float_of_int (mix (mix t.seed k1) k2) /. (float_of_int max_int +. 1.)

(* Standard normal from two independent hash draws (Box-Muller). *)
let hash_gaussian t k1 k2 =
  let u1 = Float.max 1e-12 (hash_unit t k1 (2 * k2)) in
  let u2 = hash_unit t k1 ((2 * k2) + 1) in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

(* Standard normal via Box-Muller; used for jittered placements. *)
let gaussian t =
  let u1 = max 1e-12 (Random.State.float t.state 1.0) in
  let u2 = Random.State.float t.state 1.0 in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
