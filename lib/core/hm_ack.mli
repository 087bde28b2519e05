(** Algorithm B.1 — Halldórsson–Mitra LocalBroadcast with local parameters
    (paper Appendix B), the acknowledgment half of the absMAC
    implementation (Theorem 5.1).

    The machine exposes one node-slot at a time so Algorithm 11.1 can
    interleave it with Algorithm 9.1 on even/odd slots: per node
    ({!decide}) or batched over a slot's contenders ({!select}), both
    through one step of the algorithm. *)

open Sinr_geom
open Sinr_engine

type t

val create : Params.ack -> lambda:float -> n:int -> rng:Rng.t -> t
(** The contention bound Ñ defaults to 4Λ² (Theorem 5.1) unless fixed in
    the parameters. *)

val n_tilde : t -> int
(** The contention bound Ñ in effect. *)

val start : t -> node:int -> Events.payload -> unit
(** Begin broadcasting a payload at a node (resets the machine state). *)

val stop : t -> node:int -> unit
(** Clear the node's broadcast (ack emitted, or abort). *)

val active : t -> node:int -> bool
(** Broadcasting and not yet halted. *)

val halted : t -> node:int -> bool
(** The probability budget is exhausted: the algorithm's halt condition,
    at which the MAC emits the acknowledgment. *)

val payload : t -> node:int -> Events.payload option
val slots_run : t -> node:int -> int
val fallbacks : t -> node:int -> int

val decide : t -> node:int -> Events.wire option
(** Consume one HM slot for the node: [Some wire] to transmit, [None] to
    listen. Call exactly once per HM slot per active node. *)

val select :
  t -> contenders:Node_set.t -> due:Node_set.t ->
  Events.wire Engine.selection -> int
(** One HM slot for a whole slot's contenders, as an
    {!Engine.step_select} selector: equivalent to {!decide} for every
    [eligible] member of [contenders] in ascending order, followed by
    [Node_set.add due v] for each such [v] that is {!halted} — the same
    RNG draws in the same order, the same senders and messages — but in
    one loop over {!Node_set.ascending}, with no callback per contender
    and one update each of [hm.slots], [hm.tx] and [hm.ramps] per
    call. *)

val on_receive : t -> node:int -> unit
(** Report that the node decoded some message during this HM slot
    (lines 17–22: reception counting and FallBack). *)

(** {1 Causal tracing hooks}

    Combined_mac opens one span per broadcast and hands it down; the
    machine annotates its halt and FallBack moments onto it. All no-ops
    while tracing is disabled. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the engine-slot clock used to stamp annotations (the default
    stamps 0). *)

val set_span : t -> node:int -> Sinr_obs.Span.id -> unit
(** Attach the node's ongoing-broadcast span; cleared by {!stop}. *)
