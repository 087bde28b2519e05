(** Exact SINR reception resolution (paper Eq. 1).

    Because β > 1 at most one concurrent sender is decodable per listener;
    transmitters are half-duplex; there is no collision detection.

    Resolution runs on a cached-gain fast path (see DESIGN.md "Physics
    fast path"): link powers are read from a precomputed per-receiver row
    that stores bit-identical results of the seed formula, and a clean
    slot scores only the listeners on some sender's neighbour list (its
    range R plus a 1e-9 relative pad: a decode needs the sender's lone
    power to clear βN, which forces d ≤ R to within a few ulps), so
    outcomes — including every seeded experiment number — are unchanged.
    From {!par_threshold} nodes on those listeners are scored over the
    shared [Sinr_par.Pool] when it has more than one job; from
    {!sparse_threshold} nodes on the one approximate kernel, [Sparse],
    resolves clean slots instead. The seed kernel is kept as
    {!resolve_reference} for equivalence tests and benchmarks. *)

open Sinr_geom

type t

val sparse_threshold : int
(** 4096: from this node count on, {!create} installs [Sparse] with
    ε = 0.5 and bypasses the gain cache; below it resolution is exact. *)

val par_threshold : int
(** 1024: from this node count on, a clean exact slot scores its
    listeners over the shared [Sinr_par.Pool] when
    [Sinr_par.Pool.default_jobs ()] is above 1. *)

val create : ?sparse_eps:float -> Config.t -> Point.t array -> t
(** Raises [Invalid_argument] if any pairwise distance is below 1 (the
    near-field normalization of Section 4.2). The result depends on the
    arguments alone: the gain cache gets a 64 MiB row budget
    ([Gain_cache.default_cap_bytes]), and from {!sparse_threshold} nodes
    on the sparse cell-aggregated path is installed with ε = 0.5 and the
    gain cache bypassed. [sparse_eps] installs [Sparse] with that ε at any
    node count (raises [Invalid_argument] unless it lies in (0, 1)). *)

val create_soa : ?check:bool -> ?sparse_eps:float -> Config.t -> Soa.t -> t
(** Column-first constructor for streaming placements at large n: the
    boxed [points] view is materialized lazily, only if something forces
    it. [check] (default true) validates the min-distance invariant;
    generators that guarantee it by construction pass [~check:false].
    [sparse_eps] as for {!create}. *)

val config : t -> Config.t

val soa : t -> Soa.t
(** The flat position columns every kernel reads. *)

val points : t -> Point.t array
(** The boxed record view (forces the lazy materialization at first use —
    geometry/graph consumers only, never the hot path). *)

val n : t -> int

val gain_cache : t -> Gain_cache.t
(** The instance's pairwise received-power table (for stats and tests). *)

val sparse : t -> Sparse.t option
(** The sparse cell-aggregated resolution state, when the node count
    reached {!sparse_threshold} or [sparse_eps] was given at creation. *)

val power_between : t -> from:Point.t -> at:Point.t -> float
(** Received power [P/d^α] between two plane positions. *)

val power : t -> sender:int -> receiver:int -> float
(** Received power of the node link [sender → receiver]; same value as
    {!power_between} on their positions, served from the gain cache when
    the receiver's row is resident. *)

val interference_at : t -> senders:int list -> at:Point.t -> float
(** Total power arriving at a plane position from the given transmitters. *)

val link_sinr : t -> senders:int list -> sender:int -> receiver:int -> float
(** SINR of the link [sender → receiver] against [senders] (which must
    contain [sender]). *)

type perturb = {
  noise_factor : int -> float;
      (** multiplier on the ambient noise N seen by a receiver (jamming) *)
  gain : sender:int -> receiver:int -> float;
      (** multiplier on one link's received power (fading) *)
}
(** One slot's adversarial channel state (see [lib/chaos]). Factor 1
    everywhere is the identity; omitting the perturbation entirely keeps
    the clean-channel fast path. Perturbed gains multiply the cached
    clean-channel powers. *)

val reception : ?perturb:perturb -> t -> senders:int list -> receiver:int -> int option
(** The sender decoded by [receiver] in a slot where exactly [senders]
    transmit; [None] if the receiver transmits or decodes nothing.
    The senders are validated as for {!resolve_into}; then
    [receiver] alone is scored (a [perturb] sees its links only), through
    the shared cached kernel. *)

type decoded = {
  sender : int array;
      (** per node: the sender it decoded this slot, or [-1] *)
  receivers : int array;
      (** the first [count] entries: the nodes that decoded, ascending *)
  mutable count : int;
}
(** A slot's outcome in caller-owned, reusable buffers. Empty means
    [count = 0] and [sender] all [-1]. *)

val create_decoded : int -> decoded
(** Empty buffers for a simulator of the given node count. *)

val clear_decoded : decoded -> unit
(** Empty the buffers again in O(count). *)

val resolve_into :
  ?perturb:perturb -> t -> senders:int array -> nsenders:int -> decoded -> unit
(** Resolve a slot in which the first [nsenders] entries of [senders]
    transmit (the array is only read) into empty [decoded] buffers. This
    is the one resolution entry point every wrapper below goes through;
    its cost is that of the kernel plus O(receivers) — no O(n) allocation
    or outcome scan. The sparse kernel's cost is O(senders log senders +
    scored near links + active cells × occupied sender cells). On an
    exception the buffers are left empty. *)

val resolve : ?perturb:perturb -> t -> senders:int list -> int option array
(** Per-node decoding outcome for a whole slot (a wrapper over
    {!resolve_into}). *)

val resolve_array :
  ?perturb:perturb -> t -> senders:int array -> nsenders:int -> int option array
(** {!resolve} with the senders given as the first [nsenders] entries of a
    reusable array (only read). *)

val resolve_reference : ?perturb:perturb -> t -> senders:int list -> int option array
(** The seed kernel, verbatim: re-derives every link power per pair per
    slot. The fast path is asserted bit-identical to this by the test
    suite; `bench/main.exe phys` measures the gap. *)

val in_range : t -> int -> int -> bool
(** Weak reachability: distance at most the transmission range R. *)

val iter_in_range : t -> int -> (int -> unit) -> unit
(** [iter_in_range t v f] calls [f] once on every node [u] with
    [in_range t v u] ([v] itself included), in unspecified order. With the
    sparse kernel installed a call costs O(nodes in the coarse cells around
    [v]); otherwise it walks the in-range prefix of [v]'s neighbour list
    (the one the clean kernel collects listeners from; every node's list
    is built from a grid window at the first use of any and kept), at
    O(its size). (Telemetry's
    collision/silence split walks the union over a slot's senders.) *)

val neighbours : t -> int -> int array * int
(** [neighbours t v] is [v]'s neighbour list on an exact simulator and
    the length of its prefix: ascending, the nodes [u] with [in_range t v u]
    ([v] included), then ascending the thin boundary ring just beyond R
    that the clean kernel also scores. Every node that can decode [v] in a
    clean slot is on it. Raises [Invalid_argument] when the sparse kernel
    is installed. *)
