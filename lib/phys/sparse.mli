(** Sparse cell-aggregated slot resolution for large n.

    Resolves a slot from the senders outwards: senders are bucketed into
    a fine grid (one sort, no per-cell allocation) and each walks the
    deployment's fine-cell index within the padded decoding range,
    recording every listener's loudest sender; listeners no sender
    reaches, or whose loudest sender is below the noise floor on its own,
    cannot decode (exact — beta > 1 bounds the decodable range by R) and
    are never summed. The rest are grouped by coarse cell, which share one
    near/far split: far sender cells contribute center-distance
    aggregates with relative interference error at most [eps]; near
    senders and the best sender are always scored exactly. The far sum
    itself is computed only for a cell holding a listener whose decision
    it can change (bounded from above by distance bands, see the module
    comment); every decision is the one the full sum gives. Nothing n x n
    is ever materialized; per-slot memory is O(senders + listeners in
    range), held in domain-local scratch (safe under [Sinr_par.Pool]
    workers).

    Installed automatically by [Sinr.create] at
    [Phys_tuning.sparse_threshold] nodes and above (eps from
    [Phys_tuning.sparse_eps]); it is the simulator's only approximate
    kernel. *)

type t

val create : Config.t -> Soa.t -> eps:float -> t
(** Build the grids over frozen position columns. Raises
    [Invalid_argument] unless [eps] lies in (0, 1). *)

val eps : t -> float
val fine_cells : t -> int
val coarse_cells : t -> int

val far_threshold : t -> float
(** The center distance from which a sender cell is far (aggregated). *)

val resolve :
  t -> ids:int array -> nsend:int -> listeners:int -> mark:Bytes.t ->
  sender:int array -> receivers:int array -> int
(** Score every listener against the senders [ids.(0 .. nsend-1)] (whose
    membership bitmap is [mark]; the [listeners] unmarked nodes listen,
    a count used by telemetry only). [sender] must hold [-1] for every
    listener on entry; a listener [u] that decodes gets [sender.(u)] set,
    every other entry is [-1] again on return (also on a raise), and the
    decoders are listed in [receivers] from index 0, sorted ascending;
    returns how many did. Listeners that provably cannot decode skip the
    interference sum (see the module comment). *)

val interference :
  t -> ids:int array -> nsend:int -> receiver:int -> float
(** The approximate total incoming power at [receiver], accumulated
    exactly as {!resolve} does when it needs the sum (the shared far sum
    of the receiver's coarse cell, then the exact near terms in sorted
    order), so [best >= beta *. (noise +. interference - best)] is the
    kernel's decision, bit for bit — for asserting it and the eps bound
    in tests. *)

val iter_within : t -> int -> radius:float -> (int -> unit) -> unit
(** [iter_within t v ~radius f] calls [f] on every node [u] with
    [Soa.dist v u <= radius] ([v] included), each once, in unspecified
    order, in O(members of the fine cells that overlap the square of
    half-side [radius] around [v]). Allocates nothing itself. *)
