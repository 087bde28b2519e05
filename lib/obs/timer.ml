(* Wall-clock spans paired with minor-heap allocation deltas.  Used to time
   the [Sinr.resolve] kernel into [phys.resolve.ns]. *)

type span = { wall_s : float; minor_words : float }

(* [Gc.minor_words ()] reads the domain's allocation pointer directly; the
   [minor_words] field of [quick_stat] is only refreshed at minor
   collections on OCaml 5 and would report 0 for short spans. *)
type running = { t0 : float; minor0 : float }

let start () = { t0 = Unix.gettimeofday (); minor0 = Gc.minor_words () }

let stop r =
  { wall_s = Unix.gettimeofday () -. r.t0;
    minor_words = Gc.minor_words () -. r.minor0 }
