(** Deterministic, splittable random streams.

    All randomized algorithms in this project are parameterized by an explicit
    stream so that experiments are reproducible from a single seed, and so
    that per-node streams are statistically independent of each other. *)

type t

val create : int -> t
(** [create seed] makes a fresh stream deterministically from [seed]. *)

val seed : t -> int
(** The seed this stream was created from. *)

val split : t -> key:int -> t
(** [split t ~key] derives an independent child stream. Distinct keys give
    decorrelated streams; the same [(seed, key)] pair always yields the same
    stream. Splitting does not advance the parent. *)

val split_name : t -> name:string -> t
(** [split_name t ~name] is [split t ~key:(Hashtbl.hash name)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val bits53 : t -> int
(** The top 53 bits of the next 64-bit output, redrawn while zero: the
    draw behind [float], as an int. [float t bound] is
    [float_of_int (bits53 t) *. 0x1.p-53 *. bound] with the same state
    advance, and a caller that computes it this way boxes nothing. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]).
    For [0 < p < 1] it draws exactly as [Random.State.float s 1.0 < p]
    (same outcome, same state advance) but compares raw bits, so it
    allocates nothing when [p] arrives boxed. *)

val bernoulli_at : t -> Float.Array.t -> int -> bool
(** [bernoulli_at t ps i] is [bernoulli t (Float.Array.get ps i)] without
    boxing the probability: the draw for callers that keep per-node
    probabilities in an unboxed column. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val hash_unit : t -> int -> int -> float
(** [hash_unit t k1 k2] is a uniform draw in [0, 1) that depends only on
    [(seed t, k1, k2)] — a pure hash, no state, no draw order. Intended for
    per-event randomness indexed by integers (e.g. per-slot per-link
    channel noise), where sequential draws would make results depend on
    evaluation order. *)

val hash_gaussian : t -> int -> int -> float
(** Standard normal deviate from two {!hash_unit} draws; pure in
    [(seed t, k1, k2)]. *)
