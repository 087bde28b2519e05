(** Flat cell index for fast range queries over a fixed point set.

    Points are identified by their index in the array (or columns) passed
    to {!create}; all other modules use the same index as the node
    identifier.  Nodes are counting-sorted by cell into one int array with
    a cell-offset array and their coordinates copied into cell order, so a
    query walks contiguous slices and allocates nothing. *)

type t

val create : cell:float -> Point.t array -> t
(** [create ~cell pts] buckets [pts] into square cells of side at least
    [cell]: the side is doubled until the grid has O(n) cells. A good cell
    size is the dominant query radius (e.g. the transmission range).
    Raises [Invalid_argument] if [cell <= 0]. *)

val of_columns : cell:float -> Float.Array.t -> Float.Array.t -> t
(** [of_columns ~cell xs ys]: {!create} over coordinate columns (node [i]
    at [(xs.(i), ys.(i))]), without boxing a point. The columns are read,
    not copied, and must not change while the index is in use. *)

val cell_size : t -> float
(** The side actually used (at least the one asked for). *)

val length : t -> int

val iter_within : t -> center:Point.t -> r:float -> (int -> unit) -> unit
(** Visit every index whose point lies within Euclidean distance [r]
    (inclusive) of [center], each exactly once. The test is
    [Point.dist2 p center <= r *. r]. *)

val within : t -> center:Point.t -> r:float -> int list
(** Indices within distance [r] of [center]. *)

val within_node : t -> int -> r:float -> int array -> Float.Array.t -> int
(** [within_node t i ~r ids d2] writes every index within distance [r] of
    point [i] ([i] itself included; the {!iter_within} test) to
    [ids.(0 ..)] and its squared distance to [i] ([Point.dist2]'s
    expression) to [d2.(0 ..)], each once, in cell order, and returns how
    many. Both buffers must hold at least [length t] entries. Allocates
    nothing. *)

val iter_cell_order : t -> (int -> unit) -> unit
(** Every index once, cell by cell: a caller querying around each node in
    this order reads the index's memory nearly front to back. *)

val nearest_other : t -> int -> (int * float) option
(** Nearest distinct point to point [i], with its distance; the smaller
    index on a tie. [None] when the set has a single point. *)

val min_dist2 : t -> float
(** Smallest squared distance ([Point.dist2]'s expression) over all pairs
    of points; [infinity] below two points. *)

val sort_ids : int array -> int -> unit
(** [sort_ids a len] sorts [a.(0 .. len-1)] ascending (the ids a query
    returns come in cell order). *)
