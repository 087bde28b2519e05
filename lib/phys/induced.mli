(** SINR-induced connectivity graphs G₁ ⊇ G₁₋ε ⊇ G₁₋₂ε and the distance
    ratio Λ (paper Section 4.3), built on a flat {!Sinr_geom.Grid_index}:
    O(n + edges) time for bounded-density deployments, no list cells. *)

open Sinr_geom
open Sinr_graph

val disc_graph : Point.t array -> radius:float -> Graph.t
(** Nodes within [radius] of each other are connected (squared distance at
    most [radius²] and distance at most [radius + 1e-12]). *)

val graph_a : Config.t -> Point.t array -> a:float -> Graph.t
(** Gₐ: the disc graph of radius Rₐ = a·R. *)

val weak : Config.t -> Point.t array -> Graph.t
(** G₁ — communication physically possible; unreliable in the algorithms. *)

val strong : Config.t -> Point.t array -> Graph.t
(** G₁₋ε — where the absMAC implements reliable local broadcast. *)

val approx : Config.t -> Point.t array -> Graph.t
(** G₁₋₂ε — where approximate progress is measured (Definition 7.1). *)

val lambda : Config.t -> Point.t array -> float
(** Λ = R₁₋ε / (minimum pairwise node distance). *)

type local = { delta : int; lambda : float }

val local_params : Config.t -> Soa.t -> local
(** Δ (max degree of G₁₋ε) and Λ of the deployment in [soa], from one
    pass of window queries over the position columns: no graph is built
    and no point boxed. Equal to [Graph.max_degree (strong config pts)]
    and [lambda config pts] on the same positions. *)

type profile = {
  weak : Graph.t;
  strong : Graph.t;
  approx : Graph.t;
  lambda : float;
  strong_degree : int;    (** Δ of G₁₋ε *)
  strong_diameter : int;  (** D of G₁₋ε *)
  approx_diameter : int;  (** D of G₁₋₂ε *)
}

val profile : ?strong:Graph.t -> Config.t -> Point.t array -> profile
(** All induced graphs plus the summary metrics experiments report.
    [strong], when given, must be [strong config points] (a caller that
    already built it to check connectivity passes it on). *)
