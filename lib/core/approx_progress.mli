(** Algorithm 9.1 — fast approximate progress (paper Theorem 9.1).

    Epochs of Φ = Θ(log Λ) phases; per phase: estimate the reliability
    graph H̃̃^μ_p[S_φ], sparsify S_φ by the modified non-unique-label MIS,
    then transmit the bcast-message with probability p/Q. The machine is
    driven one slot at a time ({!decide} / {!on_receive} / {!end_slot}) so
    Algorithm 11.1 can interleave it with the acknowledgment algorithm. *)

open Sinr_geom
open Sinr_phys

type t

type rcv_event = { node : int; payload : Events.payload; from : int }

val create :
  Params.approg -> Config.t -> lambda:float -> n:int -> rng:Rng.t -> t

val schedule : t -> Params.schedule
(** The concrete slot layout in effect (epoch/phase/stage lengths). *)

val start : t -> node:int -> Events.payload -> unit
(** Give the node an ongoing broadcast; it joins S₁ at the next epoch. *)

val stop : t -> node:int -> unit
val has_payload : t -> node:int -> bool

val decide : t -> node:int -> Events.wire option
(** Transmission decision of the node for the current slot. *)

val contenders : t -> Sinr_engine.Node_set.t
(** The current phase's participants: a superset of the members, and the
    only nodes for which {!decide} can return a message or draw from the
    RNG — for every other node it is [None] with no side effect. Pass it
    as [Engine.walk ~contenders]; read-only for the caller. *)

val on_receive : t -> receiver:int -> sender:int -> Events.wire -> unit
(** Feed one delivery of the current slot. *)

val end_slot : t -> rcv_event list
(** Close the current slot (stage transitions, MIS round completion, phase
    and epoch roll-over) and return the rcv outputs produced. *)

(** {1 Introspection} *)

val pos : t -> int
(** Slot index within the current epoch. *)

val epoch_index : t -> int
val current_phase : t -> int
val member : t -> node:int -> bool
(** Whether the node is currently in S_φ (and not dropped). *)

val drops_total : t -> int
(** Nodes that left an epoch due to unsuccessful communication (the W-set
    feed of Lemma 10.3), accumulated. *)

val last_h_graph : t -> Sinr_graph.Graph.t option
(** Symmetrized snapshot of the latest H̃̃ estimate (diagnostics). *)

val drain_rcv : t -> rcv_event list
(** Pull rcv outputs accumulated since the last drain (used by the combined
    MAC after even-slot deliveries; {!end_slot} drains implicitly). *)

(** {1 Causal tracing hooks} *)

val set_clock : t -> (unit -> int) -> unit
(** Install the engine-slot clock for the epoch/phase/stage spans the
    machine emits while tracing is enabled (Combined_mac installs
    [Engine.slot]; the default counts this machine's own slots). *)
