(** Uniform handle over absMAC implementations, so protocols run unchanged
    over the ideal MAC and over Algorithm 11.1 — the plug-and-play property
    of the absMAC theory. *)

open Sinr_mac

type t = {
  n : int;
  now : unit -> int;
  bounds : Absmac_intf.bounds;
  set_handlers : Absmac_intf.handlers -> unit;
  bcast : node:int -> data:int -> Events.payload;
  abort : node:int -> unit;
  busy : node:int -> bool;
  step : unit -> unit;
  alive : node:int -> bool;
}

val of_ideal : Ideal_mac.t -> t
val of_decay : Decay_mac.t -> t
val of_combined : Combined_mac.t -> t
(** The three are one constructor applied to the MAC packed as an
    {!Absmac_intf.S} (so each implementation's claim to satisfy it is
    compiler-checked), plus its [alive]: always true for the ideal MAC,
    "not crashed in the engine" for the two SINR MACs. *)

(** {1 Retry with deadline}

    Under adversarial aborts and crashes (lib/chaos) a broadcast can die
    without an ack. {!with_retry} re-issues lost payloads with capped
    exponential backoff, using the layer's own [bounds.f_ack] as the
    per-attempt deadline. *)

type retry_stats = {
  reissues : int;   (** bcasts re-issued after an abort/timeout *)
  timeouts : int;   (** deadline expiries that forced an inner abort *)
  gave_up : int;    (** payloads dropped after [max_attempts] or a crash *)
  recovered : int;  (** payloads acked on a retry attempt, not the first *)
}

type retry = {
  driver : t;
      (** the wrapped driver — hand this to protocols instead of the inner
          one; its [abort] is intentional and cancels retries *)
  force_abort : node:int -> unit;
      (** adversarial abort: kills the in-flight broadcast but keeps the
          payload pending, so the wrapper backs off and retries it *)
  outstanding : unit -> int;
      (** payloads not yet acked or dropped *)
  stats : unit -> retry_stats;
}

val with_retry :
  ?max_attempts:int -> ?base_backoff:int -> ?deadline:int -> t -> retry
(** [with_retry inner] interposes on [inner]'s handlers (install protocol
    handlers through the returned driver afterwards). [max_attempts]
    (default 4) bounds total attempts per payload; [deadline] (default
    [inner.bounds.f_ack]) declares an in-flight attempt lost; backoff
    doubles from [base_backoff] (default [deadline/16], at least 1) and is
    capped at [deadline]. *)
