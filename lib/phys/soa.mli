(** Structure-of-arrays node state: flat unboxed position columns.

    The million-node engine stores the deployment as two contiguous
    [Float.Array.t] columns instead of a [Point.t array]; kernels index the
    columns directly (no pointer chase, no boxed floats). [dist]/[dist2]
    evaluate exactly the [Point.dist]/[Point.dist2] float expressions, so
    switching a kernel to the column view is bit-identical.

    Transmit power stays the uniform [Config.power] scalar (the paper's
    uniform-power assumption) — no per-node column is needed. Columns are
    written once (streaming placement or {!of_points}) and then frozen. *)

open Sinr_geom

type t

val create : n:int -> t
(** [n] zeroed slots, to be filled by a streaming placement generator. *)

val length : t -> int

val set : t -> int -> x:float -> y:float -> unit
val x : t -> int -> float
val y : t -> int -> float

val xs : t -> Float.Array.t
val ys : t -> Float.Array.t
(** The columns themselves, for per-pair kernel loops: index them with
    [Float.Array.unsafe_get] in place. The library is compiled [-opaque]
    in the default profile, so an accessor call such as {!x} is never
    inlined and boxes its result; in a hot loop that costs an allocation
    per read. Read-only by contract (the columns are frozen). *)

val get : t -> int -> Point.t
(** Boxed view of one node (allocates). *)

val of_points : Point.t array -> t
val to_points : t -> Point.t array
(** Materializes the record view (allocates n points). *)

val dist : t -> int -> int -> float
(** Bit-identical to [Point.dist] on the same coordinates. *)

val dist2 : t -> int -> int -> float

val dist_to : t -> int -> x:float -> y:float -> float
val dist2_to : t -> int -> x:float -> y:float -> float

val iter : (int -> float -> float -> unit) -> t -> unit

val bounds : t -> float * float * float * float
(** [(xmin, ymin, xmax, ymax)] of the columns, in one unboxed pass. *)
