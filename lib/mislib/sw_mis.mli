(** Modified Schneider–Wattenhofer MIS with non-unique temporary labels
    (paper Section 9.3.2 / Lemma 10.1).

    The machine runs a fixed number of stages, each of [O(log* N) + settle]
    phases; one phase is one CONGEST round. It is driven externally —
    {!outgoing}, {!deliver}, {!advance} — so callers can simulate every
    round over a lossy medium (the SINR layer) or reliably
    ({!run_congest}).

    Guarantees: the dominator set is independent in every execution; with
    locally unique labels and reliable delivery it is a maximal independent
    set w.h.p. within the stage budget. Nodes with colliding labels may
    stall (the paper's [ruler] state) and are ignored at the predetermined
    end time — exactly the modification the paper introduces. *)

type status = Competitor | Ruler | Dominator | Dominated | Dropped

type msg = { st : status; r : int; label : int }

type t

val create :
  n:int -> participants:int list -> labels:int array -> label_bits:int ->
  stages:int -> t
(** [labels.(v)] is node [v]'s temporary label in [0, 2^label_bits)
    (only the participants' entries are read); non-participants are
    [Dropped] from the start. The machine's state, and the cost of
    building and advancing it, is O(participants), not O(n); a node id is
    looked up in O(log participants). *)

val total_rounds : t -> int
(** The predetermined runtime (paper: the algorithm terminates at a fixed
    time rather than upon individual resolution). *)

val finished : t -> bool
val status : t -> int -> status

val outgoing : t -> int -> msg option
(** The message node [v] broadcasts this round ([None] only for
    non-participants). Every state beacons so that loss is detectable. *)

val deliver : t -> node:int -> payload:msg -> unit
val advance : t -> unit
(** Apply one phase transition using this round's delivered messages. *)

val drop : t -> int -> unit
(** Mark a node's communication as failed: it stops participating (paper
    Section 9.3.2) unless already resolved. *)

val dominators : t -> int list
val resolved : t -> bool
(** No competitors or rulers remain. *)

val run_congest : Sinr_graph.Graph.t -> t -> unit
(** Reference driver: reliable synchronous delivery over an explicit graph
    until the predetermined end time. *)
