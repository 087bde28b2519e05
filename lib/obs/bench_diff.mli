(** Bench regression gate: compare a fresh metrics snapshot against a
    committed baseline with per-metric tolerance bands.

    "Worse" is inferred from the metric name: [.seconds]/[.ns]/[.minor_w]/
    [*_ratio] (an overhead: feature on over feature off)/[*latency*]/
    [*delay*] regress upward, [*speedup*]/[*throughput*]/
    [.slots_per_s]/[.per_s]/[.ok] regress downward, anything else is held
    to a symmetric band of [tolerance * max(|baseline|, 1)]. Histograms
    compare on their p50. Machine-dependent absolutes belong in [ignores]
    — the committed baselines gate ratios, which transfer across hosts. *)

type direction = Higher_better | Lower_better | Band

val direction_of_name : string -> direction

val glob_match : string -> string -> bool
(** ['*'] matches any (possibly empty) run of characters; all else is
    literal. *)

type status = Ok | Regressed | Missing | New_metric | Ignored

type finding = {
  metric : string;
  base : float option;
  cur : float option;
  status : status;
  note : string;
}

val diff :
  ?tolerance:float ->
  ?ignores:string list ->
  baseline:Metrics.snapshot ->
  current:Metrics.snapshot ->
  unit ->
  finding list
(** One finding per baseline metric (plus [New_metric] rows for current
    metrics absent from the baseline). [tolerance] defaults to 0.25 —
    a relative band of 25%. *)

val missing_current :
  ?ignores:string list -> baseline:Metrics.snapshot -> unit -> finding list
(** The report for a current snapshot file that never materialized: one
    [Missing] finding per non-ignored baseline metric ([Ignored]
    otherwise), so the gate fails per-file with exit 1 rather than
    treating a crashed workload as a usage error. *)

val regressions : finding list -> finding list
(** The gate-failing subset: [Regressed] and [Missing]. *)

val load_snapshot : string -> Metrics.snapshot
(** Read a [Sink.write_snapshot] file (exactly one JSONL snapshot line).
    Raises [Failure] / [Json.Parse_error] / [Sys_error] on anything
    else. *)

val pp_finding : finding Fmt.t
val pp_findings : finding list Fmt.t
