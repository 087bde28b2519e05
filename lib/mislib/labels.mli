(** Temporary random labels in [1, poly(Λ/ε)] (paper Section 9.3.2). *)

open Sinr_geom

val bits_for : ?exponent:float -> lambda:float -> eps_approg:float -> unit -> int
(** Label width in bits so the range is (Λ/ε)^exponent, clamped to [4, 24]. *)

val draw : Rng.t -> n:int -> participants:int list -> bits:int -> int array
(** Fresh uniform labels for the participants; 0 elsewhere. *)

val draw_into : Rng.t -> int array -> participants:int list -> bits:int -> unit
(** {!draw} into a caller's reused array: only the participants' entries
    are written, with the same draws in the same (list) order. *)

val unique : n:int -> participants:int list -> int array
(** Unique labels (the unmodified [47] baseline with global IDs). *)
