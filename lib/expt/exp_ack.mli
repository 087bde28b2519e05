(** E1 — Table 1's f_ack row and Remark 5.3's Δ lower bound, on the star
    contention workload. *)

open Sinr_stats

type row = {
  delta : int;
  lambda : float;
  measured : Summary.t option;
  timeouts : int;
  nice_frac : float;
  formula : float;
}

val run : ?seeds:int list -> ?deltas:int list -> unit -> row list
(** Prints the table and the shape verdict; returns the rows. *)

(** {1 Cell-level surface}

    Exposed for the sweep daemon ([lib/serve]): one grid cell, the star
    build plus its full-ack measurement. Deterministic in
    [(delta, seed)]: the daemon's cell is bit-identical to the one
    {!run}'s sweep computes. *)

type cell = {
  c_delta : int;          (** realized max degree of the instance *)
  c_lambda : float;
  c_mean : float option;  (** mean ack delay in slots; [None] = timeout *)
  c_nice : int;           (** acks preceded by all-neighbor receives *)
  c_total : int;
}

val star_cell : delta:int -> int -> cell
(** [star_cell ~delta seed] builds the seeded star and measures it. *)
