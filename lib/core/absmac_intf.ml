(* The abstract MAC layer interface (paper Section 4.4).

   The layer offers acknowledged local broadcast over a communication graph
   G: the environment calls [bcast]; the layer eventually delivers [rcv]
   events at neighbors and an [ack] at the sender, within the probabilistic
   delay bounds (f_ack, eps_ack), (f_prog, eps_prog) and — our modified
   specification, Definition 7.1 — (f_approg, eps_approg) measured with
   respect to the approximation G~ of G.

   The *enhanced* layer additionally exposes time (our [now]), the known
   bounds, and an [abort] input.

   Implementations: {!Ideal_mac} (graph-based reference used to validate
   protocols and the spec itself), {!Decay_mac} (the Decay baseline) and
   {!Combined_mac} (Algorithm 11.1 over the SINR simulator).
   [Sinr_proto.Mac_driver] packs each one as an [S], so the compiler checks
   all three claims. *)

type bounds = {
  f_ack : int;       (* acknowledged-by bound, in MAC time units *)
  f_prog : int;      (* progress bound w.r.t. G *)
  f_approg : int;    (* approximate-progress bound w.r.t. G~ *)
  eps_ack : float;
  eps_prog : float;
  eps_approg : float;
}

type handlers = {
  on_rcv : node:int -> payload:Events.payload -> unit;
  on_ack : node:int -> payload:Events.payload -> unit;
}

let null_handlers =
  { on_rcv = (fun ~node:_ ~payload:_ -> ());
    on_ack = (fun ~node:_ ~payload:_ -> ()) }

module type S = sig
  type t

  val n : t -> int
  (** Number of nodes. *)

  val now : t -> int
  (** Elapsed MAC time units (the enhanced layer's clock). *)

  val bounds : t -> bounds
  (** The delay guarantees this instance was configured for. *)

  val set_handlers : t -> handlers -> unit

  val bcast : t -> node:int -> data:int -> Events.payload
  (** Start an acknowledged local broadcast; returns the payload identity.
      Raises [Invalid_argument] if the node already has an ongoing
      broadcast (one outstanding bcast per node, as in [37]). *)

  val abort : t -> node:int -> unit
  (** Abort the node's ongoing broadcast (enhanced layer); no [ack] will be
      delivered for it. No effect when idle. *)

  val busy : t -> node:int -> bool
  (** Whether the node has an ongoing (unacknowledged, unaborted)
      broadcast. *)

  val step : t -> unit
  (** Advance one MAC time unit, firing handlers for the events that
      occur. *)
end
