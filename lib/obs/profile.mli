(** Slot-phase profiler: attributes wall time per [Engine.step_select]
    stage (decide, chaos perturb, SINR resolve — with the sparse kernel as a
    sub-stage — delivery fan-out, metrics/trace overhead) into log2
    histograms named [profile.<stage>.ns].

    The histograms live in the normal {!Metrics} registry, so profile rows
    flow through every sink (snapshot files, Prometheus, the [/metrics]
    endpoint). Gated on a process-global flag, default {e off}: a disabled
    hook pair costs one atomic load plus one float compare, cheap enough to
    sit permanently inside the engine's slot loop. Recording goes through
    {!Metrics.observe}, so the metrics registry must be enabled as well —
    {!with_enabled} arms both. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val with_enabled : (unit -> 'a) -> 'a
(** Run with {e both} the profiler and the metrics registry enabled,
    restoring both flags after. *)

type stage =
  | Step  (** the whole-slot envelope that shares are measured against *)
  | Decide
  | Perturb
  | Resolve
  | Sparse  (** sub-stage of [Resolve], timed inside [Sinr.resolve] *)
  | Delivery
  | Telemetry

val start : unit -> float
(** Begin timing a stage: the current time, or [0.] when the profiler is
    off (which makes the matching {!stop} a no-op). *)

val stop : stage -> float -> unit
(** [stop stage t0] records [now - t0] (ns) into [profile.<stage>.ns];
    no-op when [t0 = 0.]. *)

(** {1 Reporting} *)

type row = {
  r_stage : string;
  r_share : float;  (** percent of total profiled slot time *)
  r_total_ns : float;
  r_count : int;
  r_p50 : float;  (** ns; [nan] for the synthetic "other" row *)
  r_p99 : float;
}

type report = {
  slots : int;
  step_ns : float;  (** total profiled wall time, ns *)
  rows : row list;
      (** top-level stages plus a synthetic "other" (unattributed loop
          scaffolding + profiler overhead); shares sum to ~100% *)
  sparse : row option;
      (** the [Sparse] sub-stage when the sparse kernel ran; counted
          inside resolve, not added to the share sum *)
}

val report : unit -> report option
(** Aggregate the [profile.*] histograms; [None] when no slot was profiled
    since the last {!Metrics.reset}. *)

val pp_report : Format.formatter -> report -> unit
(** The per-stage table printed by [sinr_sim profile-report]. *)
