(** Flat per-node engine state: bit-packed wake/fault maps plus reusable
    per-slot buffers (see DESIGN.md §15 — the engine's half of the
    structure-of-arrays refactor). *)

(** Bit-per-node bitmap over [Bytes]. *)
module Bits : sig
  type t

  val create : int -> t
  (** All-false bitmap of the given length. *)

  val length : t -> int
  val get : t -> int -> bool
  val set : t -> int -> bool -> unit
  val clear : t -> unit
end

type 'm t = {
  n : int;
  awake : Bits.t;
  crashed : Bits.t;
  senders : int array;
      (** slot scratch: the first [ntx] entries are the slot's transmitters *)
  messages : 'm option array;
      (** slot scratch: per-node offered message; between slots [Some m]
          for exactly the last slot's senders *)
  decoded : Sinr_phys.Sinr.decoded;
      (** slot scratch: the last slot's resolution output, which the engine
          reads in place; emptied at the start of the next slot *)
}

val create : int -> 'm t
val n : 'm t -> int
