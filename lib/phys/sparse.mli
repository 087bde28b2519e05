(** Sparse cell-aggregated slot resolution for large n.

    Resolves a slot touching only occupied grid cells: senders are
    bucketed into a fine grid (one sort, no per-cell allocation),
    listeners share one far-field sum per coarse cell, and coarse cells
    beyond decoding range of every occupied sender cell are skipped
    without visiting their members (exact — beta > 1 bounds the decodable
    range by R), and so is the interference sum of every listener whose
    loudest sender within that range is below the noise floor on its own
    (also exact).  Far sender cells contribute center-distance aggregates
    with relative interference error at most [eps]; near senders and the
    best-sender candidate are always scored exactly.  Nothing n x n is
    ever materialized; per-slot memory is O(senders + coarse cells),
    held in domain-local scratch (safe under [Sinr_par.Pool] workers).

    Installed automatically by [Sinr.create] at
    [Phys_tuning.sparse_threshold] nodes and above (eps from
    [Phys_tuning.sparse_eps]) unless an explicit far-field mode is on. *)

type t

val create : Config.t -> Soa.t -> eps:float -> t
(** Build the grids over frozen position columns. Raises
    [Invalid_argument] unless [eps] lies in (0, 1). *)

val eps : t -> float
val fine_cells : t -> int
val coarse_cells : t -> int

val resolve :
  t -> ids:int array -> nsend:int -> mark:Bytes.t -> sender:int array ->
  receivers:int array -> int
(** Score every listener against the senders [ids.(0 .. nsend-1)] (whose
    membership bitmap is [mark]). A listener [u] that decodes gets
    [sender.(u)] set and is listed in [receivers] from index 0, sorted
    ascending; returns how many did. Listeners that provably cannot
    decode skip the interference sum (see the module comment). *)

val interference :
  t -> ids:int array -> nsend:int -> receiver:int -> float
(** The approximate total incoming power at [receiver], accumulated
    exactly as {!resolve} does (shared far sum + exact near terms) — for
    asserting the eps bound in tests. *)

val iter_window : t -> int -> radius:float -> (int -> unit) -> unit
(** [iter_window t v ~radius f] calls [f] on every node of the coarse
    cells that overlap the square of half-side [radius] around node [v]:
    a superset of the nodes within [radius] of [v] (each once, in
    unspecified order), in O(members of those cells). *)
