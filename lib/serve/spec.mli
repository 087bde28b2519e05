(** Wire form of one sweep job: experiment name, integer parameter grid,
    seeds, optional pool-size override and label.

    [of_json] is strict (unknown fields rejected); {!validate} applies the
    admission caps ({!max_axis} entries per axis, {!max_cells} grid cells)
    so a single POST cannot ask the daemon for unbounded work. *)

open Sinr_obs

type t = {
  exp : string;          (** experiment name, resolved by [Registry] *)
  params : int list;     (** outer sweep axis *)
  seeds : int list;      (** inner sweep axis *)
  jobs : int option;     (** pool size override; results are unaffected *)
  tag : string option;   (** a client's label, validated and echoed *)
}

val max_axis : int
val max_cells : int

val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result
val to_json : t -> Json.t

val cells : t -> int
(** [List.length params * List.length seeds]. *)

val validate : t -> (unit, string) result
(** Caps and well-formedness only — experiment-name resolution is the
    registry's job. *)
