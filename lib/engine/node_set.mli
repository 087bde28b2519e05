(** Sets of node ids with an ascending walk whose cost is the set's size,
    not the node count.

    Built for per-slot contender sets (see {!Engine.walk}): [add] and
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

val cardinal : t -> int
(** Number of members, O(1). *)

val clear : t -> unit
(** Remove every member. Raises [Invalid_argument] during a walk. *)

val iter : t -> (int -> unit) -> unit
(** Visit the members in ascending order (see the module comment for
    updates made by the callback). Raises [Invalid_argument] if called
    from inside a walk of the same set. *)

val ascending : t -> int array
(** The members in ascending order, as the first {!cardinal} entries of
    the returned array, with no per-member callback. O(1) when the set is
    unchanged since the last view; otherwise one merge of the pending
    additions, O(size + additions · log). The array is the set's own
    buffer: read it before the set's next [add], [remove], [clear],
    [iter] or [ascending], and never write it. Raises [Invalid_argument]
    inside a walk of the same set. *)
