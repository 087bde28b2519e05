(** The absMAC's at-most-once rcv rule (paper §7): each node outputs
    rcv(m) at most once per message m = (origin, seq), and never for its
    own messages.

    Per receiver the state is one flat int array of (origin, highest seq
    output) pairs, sorted by origin and grown by doubling, so it is
    bounded by the number of origins the node has heard, not by the
    length of the run, and a lookup is a binary search with no hashing.

    Ordering contract: every origin's messages reach a receiver in
    nondecreasing seq order.  Every MAC here keeps it: [Combined_mac] and
    [Decay_mac] start seq + 1 only after seq has stopped transmitting,
    and the callers that relay or start payloads themselves
    ([Dgkn_broadcast], [Measure], [Exp_decay_lb]) use seq 0 throughout.
    Under the contract the outputs are exactly those of a set of every
    (receiver, message) pair ever output. *)

type t

val create : int -> t
(** Empty state for receivers [0, n). *)

val admit : t -> node:int -> Events.payload -> bool
(** [admit t ~node m] is whether the delivery of [m] at [node] is a new
    rcv output, and records it if so: [false] for the node's own message
    and for a seq equal to the highest already output for [m]'s origin,
    [true] for a higher seq or a new origin.  Raises [Invalid_argument]
    for a seq below the highest output, which breaks the ordering
    contract. *)

val words : t -> node:int -> int
(** Words of the node's pair array (twice its capacity in pairs): the
    state's size, exact and independent of how often an origin was
    heard. *)
