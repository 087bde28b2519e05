(** The experiments the sweep daemon serves, as [(param, seed) -> Json]
    cell functions pure in their pair — the property resume from the job
    log rests on.

    ["ack"]: Exp_ack's star grid (param = requested Δ), one
    {!Sinr_expt.Exp_ack.star_cell} per pair.
    ["chaos"]: one E-chaos jamming point (param = jam duty percent) on the
    fixed [n = 36, degree = 6] scenario. *)

open Sinr_obs

type t = {
  name : string;
  param_name : string;  (** what the integer parameter means, for tables *)
  check_param : int -> (unit, string) result;
  cell : param:int -> seed:int -> Json.t;
}

val all : t list
val find : string -> t option
val names : unit -> string list

val resolve : Spec.t -> (t, string) result
(** Experiment lookup plus per-experiment parameter range checks — the
    second half of admission validation (the caps live in
    {!Spec.validate}). *)
