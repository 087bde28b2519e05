(* Shared plumbing of the workload runners: clocks, order statistics,
   outcome digests, the per-layer probes read from the program's own
   telemetry, and the host calibration loop. *)

open Sinr_obs

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks, as numpy's default and
   Python's [statistics.quantiles(method="inclusive")]. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(* An outcome digest: every line of the workload's observable results, in
   order, hashed.  Equal digests mean equal executions. *)
type digest = { mutable lines : string list }

let digest () = { lines = [] }
let note d fmt = Printf.ksprintf (fun s -> d.lines <- s :: d.lines) fmt
let digest_hex d = Digest.to_hex (Digest.string (String.concat "\n" (List.rev d.lines)))

(* Counters and profile stages of the program's own telemetry, read after a
   traced phase ([Profile.with_enabled] arms the registry). *)
let counter name = float_of_int (Option.value (Metrics.counter_peek name) ~default:0)

let stage_s name =
  match Profile.report () with
  | None -> 0.
  | Some r ->
    if name = "step" then r.Profile.step_ns /. 1e9
    else
      List.fold_left
        (fun acc row ->
          if row.Profile.r_stage = name then acc +. (row.Profile.r_total_ns /. 1e9)
          else acc)
        0. r.Profile.rows

let ratio a b = if b > 0. then a /. b else 0.

let engine_parts = [ "decide"; "perturb"; "delivery"; "telemetry" ]

(* Engine.step's own stages, the part of its envelope no stage covers, and
   the resolve kernel (physics, timed inside the engine's envelope). *)
let engine_split () =
  let step = stage_s "step" in
  let parts = List.map (fun k -> ("engine." ^ k ^ "_s", stage_s k)) engine_parts in
  let resolve = stage_s "resolve" in
  let other = Float.max 0. (step -. resolve -. List.fold_left (fun a (_, s) -> a +. s) 0. parts) in
  parts @ [ ("engine.other_s", other); ("phys.resolve_s", resolve) ]

let counter_names =
  [ "mac.bcasts"; "mac.acks"; "mac.acks_capped"; "mac.rcvs"; "hm.tx"; "approg.data_tx";
    "approg.mis_rounds"; "approg.drops"; "engine.slots"; "engine.tx"; "engine.deliveries";
    "phys.resolve.links"; "phys.cache.hits"; "phys.cache.fills"; "phys.cache.bypassed";
    "phys.sparse.active_cells"; "phys.sparse.near_links"; "phys.sparse.far_cell_pairs";
    "serve.checkpoints"; "serve.cells.done" ]

(* Every per-layer reading the program's telemetry gives directly: the
   counters, the engine split, and the ratios built from them. *)
let telemetry_metrics () =
  let c = counter in
  List.map (fun k -> (k, c k)) counter_names
  @ (("engine.step_s", stage_s "step") :: engine_split ())
  @ [ ("engine.deliveries_per_tx", ratio (c "engine.deliveries") (c "engine.tx"));
      ("phys.ns_per_link", ratio (stage_s "resolve" *. 1e9) (c "phys.resolve.links"));
      ("mac.rcvs_per_data_tx", ratio (c "mac.rcvs") (c "approg.data_tx")) ]

(* A fixed float loop plus a fixed allocation loop: a reading of this host's
   speed taken next to every run, so two run sets that disagree can be
   checked against the machine rather than the code. *)
let host_calibration () =
  let _, s =
    timed (fun () ->
        let x = ref 1.0 in
        for i = 1 to 20_000_000 do
          x := (!x *. 1.000000001) +. (1e-9 *. float_of_int (i land 7))
        done;
        let keep = ref [] in
        for i = 1 to 2_000_000 do
          keep := (i, !x) :: (if i land 1023 = 0 then [] else !keep)
        done;
        ignore (Sys.opaque_identity (!x, !keep)))
  in
  s

let peak_rss_mb () = Option.value (Procstat.peak_rss_mb ()) ~default:0.

(* The workload's verdict, handed to [Main] for printing. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

exception Guard of string

(* A workload that leaves the path it exists to measure fails the run
   instead of reporting a number about some other path. *)
let guard cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Guard msg)) fmt

(* Self-time shares of a traced run, printed as a table. [parts] are
   (layer metric, seconds); the shares of a consistent split sum to ~100%
   of [wall] — children measured inside a parent never exceed it. *)
let print_shares ~wall parts =
  Printf.printf "%-22s %10s %7s\n" "layer (self time)" "seconds" "share";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-22s %10.4f %6.1f%%\n" name s (100. *. ratio s wall))
    parts;
  let total = sum (List.map snd parts) in
  Printf.printf "%-22s %10.4f %6.1f%%\n%!" "sum" total (100. *. ratio total wall);
  100. *. ratio total wall

(* Recursively remove a scratch directory the benchmark created. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
