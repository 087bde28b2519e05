(** Node placement generators.

    All generators maintain the paper's near-field normalization: pairwise
    distances are at least 1 (Section 4.2). The array index of a point is its
    node identifier throughout the project. *)

exception Placement_failed of string

val min_pairwise_dist : Point.t array -> float
(** Smallest pairwise distance ([infinity] for fewer than two points). *)

val min_pairwise_dist_xy : Float.Array.t -> Float.Array.t -> float
(** {!min_pairwise_dist} over coordinate columns (node [i] at
    [(xs.(i), ys.(i))]), without boxing a point. *)

val max_pairwise_dist : Point.t array -> float
(** Largest pairwise distance (exhaustive; intended for test-sized inputs). *)

val translate : Point.t -> Point.t array -> Point.t array
val rescale : float -> Point.t array -> Point.t array

val uniform : Rng.t -> n:int -> box:Box.t -> min_dist:float -> Point.t array
(** [n] points uniform in [box] with pairwise distance at least [min_dist]
    (dart throwing). Raises {!Placement_failed} if the box is too crowded. *)

val uniform_stream :
  Rng.t -> n:int -> box:Box.t -> min_dist:float ->
  set:(int -> x:float -> y:float -> unit) ->
  x:(int -> float) -> y:(int -> float) -> unit
(** Streaming {!uniform} for the million-node path: accepted positions are
    written through [set] (a [Phys.Soa] column store at the call sites),
    so no point is ever boxed and memory stays O(n) whatever the box size.
    The generator keeps its own unboxed copy of the accepted coordinates,
    so [x] and [y] are not called; they remain in the signature for its
    callers. Probes allocate nothing. The min-distance invariant holds by
    construction, so [Sinr.create_soa ~check:false] may skip validation.
    Raises {!Placement_failed} like {!uniform}. *)

val jittered_grid :
  Rng.t -> nx:int -> ny:int -> spacing:float -> jitter:float -> Point.t array
(** A grid of [nx*ny] points with per-point uniform jitter in
    [[-jitter, jitter]²]. Requires [2*jitter < spacing - 1] so that the
    min-distance-1 invariant holds. *)

val line : n:int -> spacing:float -> Point.t array
(** [n] collinear points, [spacing >= 1] apart: the diameter-sweep workload. *)

val line_with_blob :
  Rng.t -> line_n:int -> spacing:float -> blob_n:int -> blob_radius:float ->
  Point.t array
(** A line (controls diameter) plus a dense blob near its start (controls
    degree): lets experiments sweep D and Δ independently. *)

val clusters :
  Rng.t -> k:int -> per_cluster:int -> cluster_radius:float ->
  centers_box:Box.t -> Point.t array
(** [k] well-separated clusters of [per_cluster] points each — the workload
    for sweeping the distance ratio Λ. *)

(** {1 Lower-bound constructions} *)

type two_lines = {
  points : Point.t array;
  senders : int array;    (** the V line of Theorem 6.1 *)
  receivers : int array;  (** the U line; [receivers.(i)] pairs [senders.(i)] *)
  link_len : float;       (** separation of the two lines *)
}

val two_lines : delta:int -> spacing:float -> gap:float -> two_lines
(** Theorem 6.1 / Figure 1 construction: two parallel lines of [delta] nodes,
    separated by [gap] (the paper uses [gap = R₁₋ε = 10·delta]). *)

type two_balls = {
  points : Point.t array;
  ball1 : int array;  (** 2 nodes whose progress Decay starves *)
  ball2 : int array;  (** [delta] interfering nodes *)
}

val two_balls :
  Rng.t -> delta:int -> radius:float -> center_dist:float -> two_balls
(** Theorem 8.1 construction: a 2-node ball and a [delta]-node ball of radius
    [radius] (paper: R/4) with centers [center_dist] apart (paper: 2R).
    B1's nodes sit at opposite ends of their ball, distance [2·radius]. *)

type star = {
  points : Point.t array;
  hub : int;
  leaves : int array;
}

val star : Rng.t -> delta:int -> radius:float -> star
(** Remark 5.3 construction: a hub with [delta] leaves within [radius]. *)
