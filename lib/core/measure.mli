(** Measurement drivers extracting the quantities the paper's theorems
    bound: f_ack samples and approximate-progress delays. *)

open Sinr_geom
open Sinr_phys

type ack_sample = {
  sender : int;
  delay : int;      (** engine slots from bcast to ack *)
  capped : bool;    (** ack forced by the f_ack cap rather than a B.1 halt *)
  neighbors : int;  (** strong-graph neighborhood size *)
  reached : int;    (** neighbors holding a rcv of the payload at ack time *)
}

val acks :
  ?ack_params:Params.ack -> ?approg_params:Params.approg -> Sinr.t ->
  rng:Rng.t -> senders:int list -> max_slots:int -> ack_sample list
(** Broadcast simultaneously from [senders] under the combined MAC and
    collect one sample per completed ack. *)

type approg_sample = {
  listener : int;
  delay : int option; (** first rcv from a G₁₋ε neighbor, engine slots *)
}

val covered_listeners :
  approx_graph:Sinr_graph.Graph.t -> senders:int list -> n:int -> int list
(** Non-senders with a broadcasting G₁₋₂ε-neighbor: the nodes Definition
    7.1 guarantees approximate progress for. *)

val approx_progress_only :
  ?params:Params.approg -> Sinr.t -> rng:Rng.t -> senders:int list ->
  max_slots:int -> approg_sample list * Approx_progress.t
(** Algorithm 9.1 alone on every slot (no acknowledgment interleave): the
    quantity Theorem 9.1 itself bounds. Also returns the machine for
    introspection (drops, H̃̃ snapshots). *)

val approx_progress_oracle :
  ?params:Params.approg -> Sinr.t -> rng:Rng.t -> senders:int list ->
  max_slots:int -> approg_sample list
(** The {!Approx_oracle} machine under the same driver: data slots only,
    coordination by oracle — the E8 overhead baseline. *)
