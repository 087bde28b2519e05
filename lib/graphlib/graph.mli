(** Undirected graphs over nodes [{0, ..., n-1}].

    The representation used for every graph in the project: SINR-induced
    connectivity graphs, reliability graphs and their distributed estimates.
    Node ids are indices into the placement array. *)

type t

val n : t -> int
(** Number of nodes (including isolated ones). *)

val neighbors : t -> int -> int array
(** Sorted neighbor ids; never contains the node itself. The returned array
    is owned by the graph and must not be mutated. *)

val degree : t -> int -> int
val max_degree : t -> int
val mem_edge : t -> int -> int -> bool

val of_edges : n:int -> (int * int) list -> t
(** Build from an edge list; self-loops are dropped and duplicates merged. *)

val of_predicate :
  n:int -> ?candidates:(int -> int list) -> (int -> int -> bool) -> t
(** [of_predicate ~n pred] connects [u -- v] iff [pred u v] for [u < v].
    [candidates v] may prune the tested pairs (e.g. with a spatial index). *)

val of_rows : int array array -> t
(** [of_rows adj] adopts [adj] as the adjacency rows of a graph on
    [Array.length adj] nodes, without copying. Each row must be ascending,
    without duplicates or the node itself, and the rows symmetric
    ([u] in row [v] iff [v] in row [u]); this is not checked. *)

val empty : int -> t

val edges : t -> (int * int) list
(** Each undirected edge once, as [(u, v)] with [u < v]. *)

val num_edges : t -> int
val iter_edges : t -> (int -> int -> unit) -> unit

val induced : t -> int list -> t
(** Subgraph induced by a node set. Keeps the original id space; nodes
    outside the set become isolated. *)

val union : t -> t -> t
(** Edge union of two graphs on the same node set. *)

val is_subgraph : sub:t -> super:t -> bool
val equal : t -> t -> bool
val pp : t Fmt.t
