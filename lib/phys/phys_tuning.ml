(* Process-global tuning knobs for the physics fast path.

   These are *performance* knobs, not model parameters: whatever their
   values, the clean-channel resolution outcome is bit-identical to the
   direct evaluation of Eq. 1 — except past [sparse_threshold] nodes,
   where the one approximate kernel (Sparse) bounds the relative
   interference error by [sparse_eps].

   The knobs are read once per [Sinr.create] and captured in the instance,
   so flipping them mid-run never changes the physics of an existing
   simulator — only simulators created afterwards. *)

let default_cache_mb = 64

let cache_cap = ref (
  match Sys.getenv_opt "SINR_PHYS_CACHE_MB" with
  | Some s ->
    (match int_of_string_opt s with
     | Some mb when mb >= 0 -> mb * 1024 * 1024
     | Some _ | None -> default_cache_mb * 1024 * 1024)
  | None -> default_cache_mb * 1024 * 1024)

let cache_cap_bytes () = !cache_cap
let set_cache_cap_bytes b = cache_cap := max 0 b

(* Below this node count the per-chunk pool overhead dwarfs the scoring
   work, so resolve stays on the sequential path. *)
let par_thresh = ref 1024

let par_threshold () = !par_thresh
let set_par_threshold n = par_thresh := max 1 n

(* ------------------------------------------------------------------ *)
(* Million-node knobs                                                  *)
(* ------------------------------------------------------------------ *)

(* From this node count on, [Sinr.create] installs the sparse
   cell-aggregated resolution path (Sparse) — the only way
   10^5..10^6-node slots stay sub-second.  Below it the exact kernels
   keep the bit-identity contract.  [set_sparse_threshold] with a
   non-positive value disables the automatic switch entirely. *)
let sparse_thresh = ref 4096

let sparse_threshold () = !sparse_thresh
let set_sparse_threshold n = sparse_thresh := (if n <= 0 then max_int else n)

(* Relative interference error bound of the automatic sparse path: its
   far-cell aggregates are within a factor 1 +- eps of the exact
   interference. *)
let sparse_eps_v = ref 0.5

let sparse_eps () = !sparse_eps_v

let set_sparse_eps e =
  if e <= 0. || e >= 1. then
    invalid_arg "Phys_tuning.set_sparse_eps: eps must lie in (0, 1)";
  sparse_eps_v := e
