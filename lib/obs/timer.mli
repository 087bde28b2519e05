(** Wall-clock spans with minor-heap allocation deltas, for profiling
    simulation kernels. *)

type span = { wall_s : float; minor_words : float }

type running

val start : unit -> running
val stop : running -> span
