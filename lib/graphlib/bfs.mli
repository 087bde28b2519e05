(** Breadth-first search utilities: hop distances, diameters and the
    r-neighborhoods N₍G,r₎ used throughout the paper's analysis. *)

val unreachable : int
(** Sentinel distance for nodes not reachable from the source. *)

val distances : Graph.t -> src:int -> int array
(** Hop distance from [src] to every node; {!unreachable} if disconnected. *)

val hop_distance : Graph.t -> int -> int -> int option

val eccentricity : Graph.t -> src:int -> int
(** Largest finite hop distance from [src]. *)

val diameter : ?within:int -> Graph.t -> int
(** Exact diameter of the connected component containing [within]
    (default: node 0). Runs a BFS per component node over one shared
    int-array queue and stamp array, O(members * component edges) time. *)

val ball : Graph.t -> src:int -> r:int -> int list
(** Closed r-neighborhood N₍G,r₎(src), including [src] itself. *)

val ball_of_set : Graph.t -> srcs:int list -> r:int -> int list
(** N₍G,r₎(W): union of closed r-neighborhoods of the set [srcs]. *)
