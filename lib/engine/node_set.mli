(** Sets of node ids with an ascending walk whose cost is the set's size,
    not the node count.

    Built for per-slot contender sets (see {!Engine.step}): [add] and
    [remove] are O(1) bit flips plus an amortized O(log k) merge, and
    {!iter} visits the members in ascending id order. A walk tolerates
    updates from its own callback exactly like a full [for v = 0 to n - 1]
    scan that tests membership at visit time: an id removed before its
    turn is skipped, an id added above the current one is visited in
    order, an id added below it waits for the next walk. *)

type t

val create : int -> t
(** Empty set over ids [0, n). *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** Idempotent. *)

val remove : t -> int -> unit
(** Idempotent. *)

val clear : t -> unit
(** Remove every member. Raises [Invalid_argument] during a walk. *)

val iter : t -> (int -> unit) -> unit
(** Visit the members in ascending order (see the module comment for
    updates made by the callback). Raises [Invalid_argument] if called
    from inside a walk of the same set. *)
