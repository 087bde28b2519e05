(** Synchronous-slot SINR network simulator.

    Implements the model assumptions of paper Section 4.6: conditional
    wakeup (Definition 4.4), no collision detection, half-duplex radios,
    exact SINR reception. Polymorphic in the message type. *)

open Sinr_phys

type 'm t

val create : ?trace:Trace.t -> Sinr.t -> 'm t
(** Fresh simulation with every node asleep. A node wakes when the
    environment wakes it ({!wake}) or when it decodes a message, per the
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

type 'm selection = private {
  eligible : State.Bits.t;
      (** the nodes that may transmit this slot: awake and not crashed.
          It is the engine's awake map (awake implies not crashed);
          read-only. *)
  senders : int array;
      (** the slot's transmitters, written by the selector in ascending
          id order from index 0 *)
  messages : 'm option array;
      (** per node, the message it transmits: [Some m] for exactly the
          written senders, [None] elsewhere (as handed over) *)
}
(** The slot's sender buffers, owned by the engine and reused every slot
    (no per-slot allocation). *)

val step_select : 'm t -> select:('m selection -> int) -> int
(** Run one slot whose transmitters [select] picks, and return how many
    deliveries it made. [select sel] writes the transmitters into
    [sel.senders.(0 .. k-1)], strictly ascending and each [eligible], sets
    [sel.messages.(v) <- Some m] for each of them and for no other node,
    and returns [k]. The engine checks the ids in O(k) and raises
    [Invalid_argument] if they are not ascending and eligible. If
    [select] raises, the engine clears all of [messages] (O(n), on that
    path only) and re-raises.

    The slot's outcome stays in the engine's buffers, read with
    {!receiver}, {!sender_of} and {!message}, until the next step, which
    clears them first (O(senders + receivers)). No record, list or power
    is built per delivery. Waking receivers, {!delivery_total}, the
    [engine.*] telemetry and the flight recorder's [Deliver] events are
    all done inside the step.

    Untraced, the cost beyond [select] and the resolution kernel is
    O(transmitters + receivers): resolution writes into reusable engine
    buffers and delivery visits only the nodes that decoded. With
    telemetry enabled the listener and undelivered counts add
    O(transmitters + receivers) (they are derived from an O(1) count of
    awake nodes), and the collision/silence split walks the
    transmitters' {!Sinr.iter_in_range} neighbourhoods. With the flight
    recorder armed each delivery pushes one typed [Deliver] event into
    its ring (never into the attached trace). *)

(** {2 The last slot's outcome}

    Valid from the end of a step until the start of the next one. Only a
    step changes it: a caller may {!wake}, {!crash} or {!revive} nodes
    while it reads the outcome, and later reads still see the slot as
    it ended. A reception's power is {!Sinr.power} of its sender and
    receiver. *)

val receiver : 'm t -> int -> int
(** [receiver t i], for [i] below the step's delivery count, is the
    [i]-th node that received in the last slot, in ascending id order.
    A node crashed when the slot ran never appears. *)

val sender_of : 'm t -> int -> int
(** The sender that node [u] decoded in the last slot, or [-1]. *)

val message : 'm t -> int -> 'm
(** The message sender [v] transmitted in the last slot. Raises
    [Invalid_argument] if [v] did not transmit. *)

val walk :
  ?contenders:Node_set.t -> 'm t -> decide:(int -> 'm option) ->
  'm selection -> int
(** The per-node walk as a selector for {!step_select}: [decide] is
    consulted only for awake, non-crashed nodes, in ascending id order,
    at most once each; [Some m] transmits [m] and [None] listens. Without
    [contenders] that is every such node. With [contenders], only the
    members of the set are consulted, walked in ascending order. The
    caller guarantees that [decide v] for any other awake node would
    return [None] with no side effect (no RNG draw, no state change);
    under that contract the slot — deliveries, wake and trace events, and
    every later RNG draw — is identical to the full scan. The walk adds
    O(consulted nodes), one closure call each. *)
