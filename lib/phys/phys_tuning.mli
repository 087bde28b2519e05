(** Process-global tuning knobs for the physics fast path.

    Performance knobs only — none of them changes a clean-channel
    resolution outcome below [sparse_threshold] nodes (the sparse path is
    the one approximate kernel, with a bounded interference error). Values
    are read once per [Sinr.create] and captured in the instance. *)

val cache_cap_bytes : unit -> int
(** Memory budget for [Gain_cache] rows, in bytes. Default 64 MiB,
    overridable with the [SINR_PHYS_CACHE_MB] environment variable.
    [0] disables row retention entirely (every row is recomputed into a
    per-domain scratch buffer). *)

val set_cache_cap_bytes : int -> unit
(** Clamped to [>= 0]. *)

val par_threshold : unit -> int
(** Minimum node count before [Sinr.resolve] fans listeners out over the
    shared [Sinr_par.Pool] (and only when the pool default is > 1 job).
    Default 1024. *)

val set_par_threshold : int -> unit
(** Clamped to [>= 1]. *)

val sparse_threshold : unit -> int
(** Node count from which [Sinr.create] installs the sparse
    cell-aggregated resolution path and bypasses [Gain_cache] (no row is
    ever allocated; the [phys.cache.bypassed] counter ticks). Default
    4096. Below the threshold resolution stays exact (bit-identical to
    [resolve_reference]). *)

val set_sparse_threshold : int -> unit
(** [n <= 0] disables the sparse path for simulators created from now
    on. *)

val sparse_eps : unit -> float
(** Relative interference error bound of the automatic sparse path:
    |I' - I| <= eps * I for every listener's approximated interference
    I'. Default 0.5. *)

val set_sparse_eps : float -> unit
(** Raises [Invalid_argument] unless the eps lies in (0, 1). *)
