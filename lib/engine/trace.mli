(** Bounded traces of absMAC-level events, used by tests and Spec_check to
    check the specification's execution predicates. *)

type event = Sinr_obs.Sim_event.t =
  | Bcast of { node : int; msg : int }
  | Rcv of { node : int; msg : int; from : int }
  | Ack of { node : int; msg : int }
  | Abort of { node : int; msg : int }
  | Wake of { node : int }
  | Crash of { node : int }
  | Recover of { node : int }
  | Deliver of { node : int; from : int }
  | Note of string
(** Re-export of {!Sinr_obs.Sim_event.t}, whose [pp], [to_json] and
    [of_json] are the event's one printer and JSON shape. *)

type entry = { slot : int; event : event }

type t

val create : ?capacity:int -> unit -> t
(** When full, the oldest half is discarded (see {!dropped}). *)

val record : t -> slot:int -> event -> unit
val events : t -> entry list
(** Oldest first. *)

val dropped : t -> int
val find_first : t -> (entry -> bool) -> entry option
val count : t -> (entry -> bool) -> int

val emit : t option -> slot:int -> event -> unit
(** The engine's and every MAC's single record call: {!record} into the
    attached trace when there is one, and, while the flight recorder is
    armed, {!Sinr_obs.Span.record_event} of the same typed event. *)

val to_jsonl : t -> string
(** All retained events, oldest first, one [{"slot":..,<event fields>}]
    object per line. *)
