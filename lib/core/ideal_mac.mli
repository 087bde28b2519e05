(** Graph-based reference absMAC: delivers exactly the probabilistic
    specification over an explicit graph, under a random or adversarial
    (latest-legal) event scheduler. Used to test protocols above the layer
    independently of the SINR machinery. Implements {!Absmac_intf.S}. *)

open Sinr_geom
open Sinr_graph
open Sinr_engine

type policy =
  | Random
  | Adversarial
  | Violating of float
      (** spec-breaking scheduler: with this probability per broadcast,
          one neighbor's rcv is starved past the ack and another misses
          the progress window — for negative-testing {!Spec_check} *)

type t

val create :
  ?policy:policy -> ?trace:Trace.t -> Graph.t -> bounds:Absmac_intf.bounds ->
  rng:Rng.t -> t
(** Requires [1 <= f_prog <= f_ack]. A [trace] records the execution for
    {!Spec_check}. *)

val graph : t -> Graph.t

(** The functions below implement {!Absmac_intf.S}. *)

val n : t -> int
val now : t -> int
val bounds : t -> Absmac_intf.bounds
val set_handlers : t -> Absmac_intf.handlers -> unit
val bcast : t -> node:int -> data:int -> Events.payload
val abort : t -> node:int -> unit
val busy : t -> node:int -> bool
val step : t -> unit
