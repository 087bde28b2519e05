(** Synchronous-slot SINR network simulator.

    Implements the model assumptions of paper Section 4.6: conditional
    wakeup (Definition 4.4), no collision detection, half-duplex radios,
    exact SINR reception. Polymorphic in the message type. *)

open Sinr_phys

type 'm action = Transmit of 'm | Listen

type 'm delivery = {
  receiver : int;
  sender : int;
  message : 'm;
  power : float;
      (** received power P/d^α of the decoded transmission (the observable
          of Remark 4.6's signal-strength assumption) *)
}

type 'm t

val create : ?wake_on_receive:bool -> ?trace:Trace.t -> Sinr.t -> 'm t
(** Fresh simulation with every node asleep. [wake_on_receive] (default
    true) makes asleep nodes wake when they decode a message, per the
    conditional-wakeup model. [trace] records Wake/Crash/Recover fault
    events as the simulation advances, through {!Trace.emit}: with the
    flight recorder armed the same typed events also go to its ring,
    whether or not a trace is attached. *)

val set_perturb : 'm t -> (slot:int -> Sinr.perturb option) -> unit
(** Install a per-slot channel-perturbation hook (an adversary from
    [lib/chaos]). Consulted once per slot before SINR resolution; [None]
    keeps the clean-channel fast path. *)

val set_on_crash : 'm t -> (int -> unit) -> unit
(** Install the crash hook: [f v] runs once for each effective {!crash}
    of [v] (not for a repeated crash of a down node), after the crashed
    and awake bitmaps are updated and the Crash event is recorded, so
    {!is_crashed} already holds inside [f]. The hook has one owner — a
    second call replaces the first — and [Combined_mac] installs it to
    learn which broadcasters to drop without scanning them every slot. *)

val sinr : 'm t -> Sinr.t
val n : 'm t -> int
val slot : 'm t -> int
(** Slots executed so far (the global clock). *)

val tx_total : 'm t -> int
val delivery_total : 'm t -> int

val is_awake : 'm t -> int -> bool
val is_crashed : 'm t -> int -> bool

val wake : 'm t -> int -> unit
(** Environment wakeup (e.g. a [bcast] input). No effect on crashed nodes. *)

val wake_all : 'm t -> unit
val crash : 'm t -> int -> unit
(** Silence a node (fault injection). Idempotent: double-crash and
    crash-before-wake record a single Crash event. *)

val revive : 'm t -> int -> unit
(** Un-crash a node (crash–recover adversaries). The node rejoins asleep —
    conditional wakeup applies as for a fresh node. No effect on
    non-crashed nodes. *)

val awake_nodes : 'm t -> int list

val step :
  ?on_deliver:('m delivery -> unit) -> ?contenders:Node_set.t -> 'm t ->
  decide:(int -> 'm action) -> 'm delivery list
(** Run one slot and return its deliveries, in ascending receiver order.

    [decide] is consulted only for awake, non-crashed nodes, in ascending
    id order, at most once each; all others listen. Without [contenders]
    that is every such node. With [contenders], only the members of the
    set are consulted, walked in ascending order. The caller guarantees
    that [decide v] for any other awake node would return [Listen] with no
    side effect (no RNG draw, no state change); under that contract the
    slot — deliveries, wake and trace events, and every later RNG draw —
    is identical to the full scan.

    Untraced, the cost beyond the resolution kernel is O(consulted nodes +
    transmitters + receivers): resolution writes into reusable engine
    buffers and delivery visits only the nodes that decoded. With
    telemetry enabled the listener count and the collision/silence split
    add two O(n) passes. With the flight recorder armed each delivery
    pushes one typed [Deliver] event into its ring (never into the
    attached trace). *)

val run :
  ?on_deliver:('m delivery -> unit) ->
  ?on_slot:(slot:int -> 'm delivery list -> unit) ->
  'm t -> decide:(int -> 'm action) ->
  stop:(unit -> bool) -> max_slots:int -> int
(** Step until [stop ()] or [max_slots] slots; returns slots executed.
    [on_slot] fires after each slot with its index and deliveries. *)
