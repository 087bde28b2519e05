(* The physics fast path: the cached/scratch/parallel/array kernels must be
   bit-identical to the seed implementation (Sinr.resolve_reference) across
   random placements, sender sets and chaos-style perturbations. *)

open Sinr_geom
open Sinr_phys

let cfg = Config.default (* alpha=3 beta=1.5 N=1 eps=0.1, R=12 *)

let outcome = Alcotest.(array (option int))

(* A deterministic pseudo-random deployment + sender set per case index. *)
let random_case rng ~case =
  let r = Rng.split rng ~key:case in
  let n = 2 + Rng.int r 38 in
  (* Box side scales with sqrt n: constant density (so interference is
     non-trivial) and enough room for dart-throwing placement. *)
  let side = 6. +. (3. *. sqrt (float_of_int n)) +. Rng.float r 10. in
  let pts = Placement.uniform r ~n ~box:(Box.square ~side) ~min_dist:1. in
  let n = Array.length pts in
  let senders =
    List.filter (fun _ -> Rng.bernoulli r 0.35) (List.init n Fun.id)
  in
  (pts, senders)

(* A chaos-style perturbation built from pure hash streams (jamming noise +
   log-normal fading), keyed by the case index. *)
let perturb_of rng ~case =
  let r = Rng.split rng ~key:(10_000 + case) in
  { Sinr.noise_factor = (fun u -> 1. +. (4. *. Rng.hash_unit r 1 u));
    gain =
      (fun ~sender ~receiver ->
        exp (0.4 *. Rng.hash_gaussian r sender receiver)) }

let check_case ~label sinr ~senders ~perturb =
  let expected = Sinr.resolve_reference ?perturb sinr ~senders in
  let got = Sinr.resolve ?perturb sinr ~senders in
  Alcotest.check outcome label expected got

(* ---------------- cached kernel (default) ---------------- *)

let test_cached_matches_reference () =
  let rng = Rng.create 71 in
  for case = 0 to 149 do
    let pts, senders = random_case rng ~case in
    let sinr = Sinr.create cfg pts in
    check_case ~label:(Fmt.str "clean case %d" case) sinr ~senders
      ~perturb:None;
    check_case
      ~label:(Fmt.str "perturbed case %d" case)
      sinr ~senders
      ~perturb:(Some (perturb_of rng ~case))
  done

(* ---------------- scratch rows (cache cap exhausted) ---------------- *)

let test_scratch_matches_reference () =
  let prev = Phys_tuning.cache_cap_bytes () in
  Phys_tuning.set_cache_cap_bytes 0;
  Fun.protect ~finally:(fun () -> Phys_tuning.set_cache_cap_bytes prev)
  @@ fun () ->
  let rng = Rng.create 72 in
  for case = 0 to 74 do
    let pts, senders = random_case rng ~case in
    let sinr = Sinr.create cfg pts in
    Alcotest.(check int)
      "no rows retained" 0
      (Gain_cache.rows_cached (Sinr.gain_cache sinr));
    check_case ~label:(Fmt.str "scratch case %d" case) sinr ~senders
      ~perturb:None;
    check_case
      ~label:(Fmt.str "scratch perturbed %d" case)
      sinr ~senders
      ~perturb:(Some (perturb_of rng ~case));
    (* Single-listener reception reads the same partially filled rows. *)
    Array.iteri
      (fun u expected ->
        Alcotest.(check (option int))
          (Fmt.str "scratch reception %d/%d" case u)
          expected
          (Sinr.reception sinr ~senders ~receiver:u))
      (Sinr.resolve_reference sinr ~senders)
  done

let test_cache_cap_partial () =
  (* A cap admitting exactly 3 rows: resolution stays exact, retention
     stops at the budget. *)
  let rng = Rng.create 73 in
  let pts = Placement.uniform rng ~n:20 ~box:(Box.square ~side:25.) ~min_dist:1. in
  let n = Array.length pts in
  let prev = Phys_tuning.cache_cap_bytes () in
  Phys_tuning.set_cache_cap_bytes (3 * n * 8);
  Fun.protect ~finally:(fun () -> Phys_tuning.set_cache_cap_bytes prev)
  @@ fun () ->
  let sinr = Sinr.create cfg pts in
  let senders = [ 0; 3; 7 ] in
  check_case ~label:"capped cache" sinr ~senders ~perturb:None;
  let cache = Sinr.gain_cache sinr in
  Alcotest.(check int) "rows at cap" 3 (Gain_cache.rows_cached cache);
  Alcotest.(check int) "bytes at cap" (3 * n * 8) (Gain_cache.bytes_cached cache);
  (* Still exact on a second, different sender set. *)
  check_case ~label:"capped cache, slot 2" sinr ~senders:[ 1; 2 ] ~perturb:None

(* ---------------- parallel listener fan-out ---------------- *)

let test_parallel_matches_reference () =
  let prev_thresh = Phys_tuning.par_threshold () in
  let prev_jobs = Sinr_par.Pool.default_jobs () in
  Phys_tuning.set_par_threshold 4;
  Sinr_par.Pool.set_default_jobs 3;
  Fun.protect
    ~finally:(fun () ->
      Phys_tuning.set_par_threshold prev_thresh;
      Sinr_par.Pool.set_default_jobs prev_jobs)
  @@ fun () ->
  let rng = Rng.create 74 in
  for case = 0 to 59 do
    let pts, senders = random_case rng ~case in
    let sinr = Sinr.create cfg pts in
    check_case ~label:(Fmt.str "parallel case %d" case) sinr ~senders
      ~perturb:None
  done

(* ---------------- array entry point & reception ---------------- *)

let test_resolve_array_matches_list () =
  let rng = Rng.create 75 in
  for case = 0 to 39 do
    let pts, senders = random_case rng ~case in
    let sinr = Sinr.create cfg pts in
    (* Oversized scratch with trailing garbage that must be ignored. *)
    let scratch = Array.make (Array.length pts + 5) 0 in
    List.iteri (fun i s -> scratch.(i) <- s) senders;
    Alcotest.check outcome
      (Fmt.str "array case %d" case)
      (Sinr.resolve sinr ~senders)
      (Sinr.resolve_array sinr ~senders:scratch
         ~nsenders:(List.length senders))
  done;
  Alcotest.(check bool) "nsenders bound checked" true
    (let sinr = Sinr.create cfg [| Point.make 0. 0.; Point.make 5. 0. |] in
     try
       ignore (Sinr.resolve_array sinr ~senders:[| 0 |] ~nsenders:2);
       false
     with Invalid_argument _ -> true)

let test_reception_matches_reference () =
  let rng = Rng.create 76 in
  for case = 0 to 39 do
    let pts, senders = random_case rng ~case in
    let sinr = Sinr.create cfg pts in
    let p = perturb_of rng ~case in
    let clean = Sinr.resolve_reference sinr ~senders in
    let pert = Sinr.resolve_reference ~perturb:p sinr ~senders in
    for u = 0 to Array.length pts - 1 do
      Alcotest.(check (option int))
        (Fmt.str "reception %d/%d" case u)
        clean.(u)
        (Sinr.reception sinr ~senders ~receiver:u);
      Alcotest.(check (option int))
        (Fmt.str "reception perturbed %d/%d" case u)
        pert.(u)
        (Sinr.reception ~perturb:p sinr ~senders ~receiver:u)
    done
  done

let test_power_matches_power_between () =
  let rng = Rng.create 77 in
  let pts = Placement.uniform rng ~n:12 ~box:(Box.square ~side:20.) ~min_dist:1. in
  let sinr = Sinr.create cfg pts in
  (* Touch the cache through one resolve so some rows are resident. *)
  ignore (Sinr.resolve sinr ~senders:[ 0; 1 ]);
  Array.iteri
    (fun u _ ->
      Array.iteri
        (fun v _ ->
          if u <> v then
            Alcotest.(check bool)
              (Fmt.str "power %d->%d" v u)
              true
              (Float.equal
                 (Sinr.power_between sinr ~from:pts.(v) ~at:pts.(u))
                 (Sinr.power sinr ~sender:v ~receiver:u)))
        pts)
    pts

(* ---------------- reliability estimate bit-identity ---------------- *)

let test_reliability_matches_seed_trial_loop () =
  (* Re-run the seed trial loop by hand (list filtering + reference
     resolve) and demand the production estimate matches count-for-count. *)
  let rng = Rng.create 78 in
  let pts = Placement.uniform rng ~n:14 ~box:(Box.square ~side:16.) ~min_dist:1. in
  let n = Array.length pts in
  let sinr = Sinr.create cfg pts in
  let set = List.init n Fun.id in
  let trials = 120 and p = 0.3 and mu = 0.02 in
  let est_rng = Rng.split rng ~key:1 in
  let est = Reliability.estimate ~trials ~jobs:1 sinr est_rng ~set ~p ~mu in
  let members = Array.of_list set in
  let counts = Array.make (n * n) 0 in
  for t = 0 to trials - 1 do
    let trng = Rng.split est_rng ~key:t in
    let senders =
      Array.to_list members |> List.filter (fun _ -> Rng.bernoulli trng p)
    in
    if senders <> [] then begin
      let outcome = Sinr.resolve_reference sinr ~senders in
      Array.iter
        (fun u ->
          match outcome.(u) with
          | Some v -> counts.((u * n) + v) <- counts.((u * n) + v) + 1
          | None -> ())
        members
    end
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let expected = float_of_int counts.((u * n) + v) /. float_of_int trials in
      let got = Reliability.success_prob est (u, v) in
      if not (Float.equal expected got) then
        Alcotest.failf "success_prob (%d,%d): seed loop %.6f <> estimate %.6f"
          u v expected got
    done
  done

let suite =
  [ Alcotest.test_case "cached kernel = seed kernel (300 cases)" `Quick
      test_cached_matches_reference;
    Alcotest.test_case "scratch rows = seed kernel (cap 0)" `Quick
      test_scratch_matches_reference;
    Alcotest.test_case "partial cache cap stays exact" `Quick
      test_cache_cap_partial;
    Alcotest.test_case "parallel listeners = seed kernel" `Quick
      test_parallel_matches_reference;
    Alcotest.test_case "resolve_array = resolve" `Quick
      test_resolve_array_matches_list;
    Alcotest.test_case "reception = seed kernel per listener" `Quick
      test_reception_matches_reference;
    Alcotest.test_case "cached power = power_between" `Quick
      test_power_matches_power_between;
    Alcotest.test_case "reliability = seed trial loop" `Quick
      test_reliability_matches_seed_trial_loop ]
