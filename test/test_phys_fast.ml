(* The physics fast path: the cached/scratch/parallel/array kernels must be
   bit-identical to the seed implementation (Sinr.resolve_reference) across
   random placements, sender sets and chaos-style perturbations. *)

open Sinr_geom
open Sinr_phys
open Sinr_obs

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

(* ---------------- list-limited clean kernel ---------------- *)

(* A sender's reach is its neighbour list ([Sinr.neighbours]): a clean
   exact slot scores only the listeners on its senders' lists. *)

(* Telemetry on, counters zeroed, for one test. *)
let with_telemetry f =
  Metrics.reset_for_tests ();
  Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
  Metrics.set_enabled true;
  f ()

let count name = Option.value ~default:0 (Metrics.counter_peek name)

(* Resolve one clean slot against the seed kernel and check the exact
   kernel's counters: every listener is either scored against every
   sender (phys.resolve.links) or skipped (silent_listeners).  Returns
   the outcome and the number of listeners skipped. *)
let check_counted ~label sinr ~senders =
  let links0 = count "phys.resolve.links"
  and silent0 = count "phys.resolve.silent_listeners" in
  check_case ~label sinr ~senders ~perturb:None;
  let nsend = List.length senders in
  let listeners = Sinr.n sinr - nsend in
  let silent = count "phys.resolve.silent_listeners" - silent0 in
  Alcotest.(check int)
    (label ^ ": links = scored listeners x senders")
    ((listeners - silent) * nsend)
    (count "phys.resolve.links" - links0);
  silent

let test_reach_boundary () =
  with_telemetry @@ fun () ->
  (* R = 12 exactly: P = beta N R^alpha = 2592, so at d = 12 a lone
     sender's power is 2592 / 1728 = 1.5 = beta N and the listener
     decodes, on the boundary itself. *)
  Alcotest.(check (float 0.)) "P" 2592. cfg.Config.power;
  let axes =
    [ Point.make 12. 0.; Point.make 0. 12.; Point.make (-12.) 0.;
      Point.make 0. (-12.) ]
  in
  (* Just beyond R, each on its own bearing (pairwise distance >= 1); the
     first two are on the sender's list (within in_range's 1e-12 slack,
     and in the boundary ring), scored and silent. *)
  let beyond =
    List.mapi
      (fun i d ->
        let th = 0.4 +. (0.8 *. float_of_int i) in
        Point.make (d *. cos th) (d *. sin th))
      [ Float.succ 12.; 12. +. 1e-9; 12. +. 1e-6; 12.001; 12.5; 13. ]
  in
  let far = [ Point.make 40. 0.; Point.make 0. 41.; Point.make (-39.) 3. ] in
  let pts =
    Array.of_list
      ((Point.make 0. 0. :: axes) @ beyond @ far @ [ Point.make 5. 5. ])
  in
  let sinr = Sinr.create cfg pts in
  Alcotest.(check (float 0.)) "power at R" 1.5
    (Gain_cache.compute (Sinr.gain_cache sinr) ~sender:0 ~receiver:1);
  let silent = check_counted ~label:"lone sender" sinr ~senders:[ 0 ] in
  let got = Sinr.resolve sinr ~senders:[ 0 ] in
  for u = 1 to 4 do
    Alcotest.(check (option int)) (Fmt.str "decodes at R (%d)" u) (Some 0)
      got.(u)
  done;
  Alcotest.(check (option int)) "nothing at 13" None got.(10);
  Alcotest.(check bool) "out-of-reach listeners skipped" true (silent > 0);
  (* A second sender among the far nodes: its list joins the candidates
     and its interference reaches the ring. *)
  ignore (check_counted ~label:"two senders" sinr ~senders:[ 0; 11 ])

(* Spread-out deployments (box side >= 6R) with 1-3 senders: most
   listeners are beyond every sender's reach. *)
let spread_case rng ~case =
  let r = Rng.split rng ~key:case in
  let n = 10 + Rng.int r 40 in
  let side = (6. *. 12.) +. Rng.float r 60. in
  let pts = Placement.uniform r ~n ~box:(Box.square ~side) ~min_dist:1. in
  let n = Array.length pts in
  let k = 1 + Rng.int r 3 in
  let senders = List.sort_uniq compare (List.init k (fun _ -> Rng.int r n)) in
  (pts, senders)

let check_spread ~seed () =
  with_telemetry @@ fun () ->
  let rng = Rng.create seed in
  let silent = ref 0 in
  for case = 0 to 79 do
    let pts, senders = spread_case rng ~case in
    let sinr = Sinr.create cfg pts in
    silent :=
      !silent
      + check_counted ~label:(Fmt.str "spread case %d" case) sinr ~senders;
    check_case
      ~label:(Fmt.str "spread perturbed %d" case)
      sinr ~senders
      ~perturb:(Some (perturb_of rng ~case))
  done;
  Alcotest.(check bool) "listeners skipped" true (!silent > 0)

let test_reach_spread () = check_spread ~seed:79 ()

let test_reach_spread_scratch () =
  let prev = Phys_tuning.cache_cap_bytes () in
  Phys_tuning.set_cache_cap_bytes 0;
  Fun.protect ~finally:(fun () -> Phys_tuning.set_cache_cap_bytes prev)
  @@ check_spread ~seed:80

let test_reach_dense_rule () =
  with_telemetry @@ fun () ->
  (* A tight cluster of 10 (everyone within reach of everyone) with three
     senders, plus 10 nodes far out of reach: the senders' lists, less
     the senders themselves, hold 3 x 9 = 27 entries for 17 listeners, so
     every listener is scored — the far ones too, and they still decode
     nothing. *)
  let cluster =
    List.init 10 (fun i ->
        let cell k = 1.5 *. float_of_int k in
        Point.make (cell (i mod 5)) (cell (i / 5)))
  in
  let far =
    List.init 10 (fun i -> Point.make (100. +. (3. *. float_of_int i)) 100.)
  in
  let sinr = Sinr.create cfg (Array.of_list (cluster @ far)) in
  let silent = check_counted ~label:"dense slot" sinr ~senders:[ 0; 4; 7 ] in
  Alcotest.(check int) "dense: no listener skipped" 0 silent;
  (* One sender: 9 entries for 19 listeners, so the far ones are skipped. *)
  let silent = check_counted ~label:"sparse slot" sinr ~senders:[ 4 ] in
  Alcotest.(check int) "reach-limited: the far listeners skipped" 10 silent

let test_reach_many_decodes () =
  with_telemetry @@ fun () ->
  (* 64 clusters 40 apart, each a sender with two listeners at distance 3
     and a loner out of everyone's reach, ids shuffled: 128 decodes arrive
     in neighbour-list order, out of id order, and must come out
     ascending. *)
  let cluster i =
    let cx = 40. *. float_of_int (i mod 8)
    and cy = 40. *. float_of_int (i / 8) in
    [ (`Sender, Point.make cx cy);
      (`Other, Point.make (cx +. 3.) cy);
      (`Other, Point.make cx (cy +. 3.));
      (`Other, Point.make (cx +. 20.) (cy +. 20.)) ]
  in
  let nodes = Array.of_list (List.concat (List.init 64 cluster)) in
  Rng.shuffle (Rng.create 82) nodes;
  let pts = Array.map snd nodes in
  let senders =
    List.filter (fun u -> fst nodes.(u) = `Sender)
      (List.init (Array.length pts) Fun.id)
  in
  let sinr = Sinr.create cfg pts in
  Alcotest.(check int) "loners skipped" 64
    (check_counted ~label:"64 clusters" sinr ~senders);
  let out = Sinr.create_decoded (Array.length pts) in
  let ids = Array.of_list senders in
  Sinr.resolve_into sinr ~senders:ids ~nsenders:(Array.length ids) out;
  Alcotest.(check int) "decodes" 128 out.Sinr.count;
  for i = 1 to out.Sinr.count - 1 do
    if out.Sinr.receivers.(i - 1) >= out.Sinr.receivers.(i) then
      Alcotest.failf "receivers not ascending at %d" i
  done

let test_reach_parallel () =
  (* n >= par_threshold: the candidate window fans out over the pool,
     and jobs 2 must agree with jobs 1 and with the seed kernel. *)
  let prev_thresh = Phys_tuning.par_threshold () in
  let prev_jobs = Sinr_par.Pool.default_jobs () in
  Phys_tuning.set_par_threshold 64;
  Fun.protect
    ~finally:(fun () ->
      Phys_tuning.set_par_threshold prev_thresh;
      Sinr_par.Pool.set_default_jobs prev_jobs)
  @@ fun () ->
  with_telemetry @@ fun () ->
  let rng = Rng.create 81 in
  let silent = ref 0 in
  for case = 0 to 11 do
    let r = Rng.split rng ~key:case in
    let side = 120. +. Rng.float r 120. in
    let pts = Placement.uniform r ~n:300 ~box:(Box.square ~side) ~min_dist:1. in
    let n = Array.length pts in
    (* Every third slot is busy enough for the dense rule. *)
    let p = if case mod 3 = 0 then 0.3 else 0.02 in
    let senders =
      List.filter (fun _ -> Rng.bernoulli r p) (List.init n Fun.id)
    in
    let sinr = Sinr.create cfg pts in
    Sinr_par.Pool.set_default_jobs 1;
    let one = Sinr.resolve sinr ~senders in
    Sinr_par.Pool.set_default_jobs 2;
    silent :=
      !silent
      + check_counted ~label:(Fmt.str "jobs 2 case %d" case) sinr ~senders;
    Alcotest.check outcome (Fmt.str "jobs 2 = jobs 1, case %d" case) one
      (Sinr.resolve sinr ~senders)
  done;
  Alcotest.(check bool) "listeners skipped" true (!silent > 0)

(* ---------------- neighbour lists ---------------- *)

(* Random configs (alpha in [2.1, 6], beta in (1, 4], N and R in
   [1, 10^4]) and placements with nodes at R, Float.succ R, R (1 +- 1e-12)
   and Float.pred R from a centre, plus scattered nodes: every node whose
   lone power from [v] clears beta N is on [v]'s neighbour list, and the
   list's prefix is exactly the brute-force [in_range] scan. *)
let prop_neighbours_superset =
  QCheck.Test.make ~name:"neighbour list holds every decoder" ~count:150
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let r = Rng.create seed in
      let alpha = 2.1 +. Rng.float r 3.9 in
      let beta = 4. -. Rng.float r 3. in
      let noise = 1. +. Rng.float r 9999. in
      let cfg =
        Config.with_range ~alpha ~beta ~noise ~range:(1. +. Rng.float r 9999.)
          ()
      in
      let range = Config.range cfg in
      let centre = Point.make (Rng.float r 1e4) (Rng.float r 1e4) in
      let ring =
        List.mapi
          (fun i d ->
            let theta = (1.25 *. float_of_int i) +. Rng.float r 0.2 in
            Point.on_circle ~center:centre ~r:d ~theta)
          [ range; Float.succ range; range *. (1. +. 1e-12);
            range *. (1. -. 1e-12); Float.pred range ]
      in
      let pts = ref (centre :: ring) in
      for _ = 1 to 30 do
        let p =
          Point.make
            (Point.x centre +. ((Rng.float r 5. -. 2.5) *. range))
            (Point.y centre +. ((Rng.float r 5. -. 2.5) *. range))
        in
        if List.for_all (fun q -> Point.dist p q >= 1.01) !pts then
          pts := !pts @ [ p ]
      done;
      let sinr = Sinr.create cfg (Array.of_list !pts) in
      let n = Sinr.n sinr and gc = Sinr.gain_cache sinr in
      let floor = cfg.Config.beta *. cfg.Config.noise in
      List.for_all
        (fun v ->
          let near, split = Sinr.neighbours sinr v in
          let on_list u = Array.mem u near in
          Array.to_list (Array.sub near 0 split)
          = List.filter (Sinr.in_range sinr v) (List.init n Fun.id)
          && List.length (List.sort_uniq compare (Array.to_list near))
             = Array.length near
          && List.for_all
               (fun u ->
                 u = v
                 || Gain_cache.compute gc ~sender:v ~receiver:u < floor
                 || on_list u)
               (List.init n Fun.id))
        (List.init n Fun.id))

(* A perturb closure that calls back into the same instance mid-slot:
   the inner calls find the per-domain scratch busy and must fall back to
   fresh buffers, so the outer slot and every inner answer stay equal to
   the seed kernel's.  Dense and spread-out cases alternate (the inner
   clean slot takes the dense rule or the list-limited path), and cap 0
   makes every row a scratch row. *)
let check_reentrant ~seed () =
  let rng = Rng.create seed in
  for case = 0 to 19 do
    let pts, senders =
      if case mod 2 = 0 then random_case rng ~case else spread_case rng ~case
    in
    let sinr = Sinr.create cfg pts in
    let base = perturb_of rng ~case in
    let clean = Sinr.resolve_reference sinr ~senders in
    let pert = Sinr.resolve_reference ~perturb:base sinr ~senders in
    let inner = ref 0 in
    let gain ~sender ~receiver =
      incr inner;
      Alcotest.(check (option int))
        (Fmt.str "case %d: inner reception %d" case receiver)
        pert.(receiver)
        (Sinr.reception ~perturb:base sinr ~senders ~receiver);
      Alcotest.(check (option int))
        (Fmt.str "case %d: inner clean reception %d" case receiver)
        clean.(receiver)
        (Sinr.reception sinr ~senders ~receiver);
      if !inner = 1 then
        Alcotest.check outcome (Fmt.str "case %d: inner clean slot" case) clean
          (Sinr.resolve sinr ~senders);
      base.gain ~sender ~receiver
    in
    Alcotest.check outcome (Fmt.str "case %d: outer slot" case) pert
      (Sinr.resolve ~perturb:{ base with gain } sinr ~senders);
    Alcotest.(check bool) (Fmt.str "case %d: re-entered" case)
      (senders <> [] && List.length senders < Array.length pts)
      (!inner > 0);
    (* The scratch is released: a later slot still agrees. *)
    check_case ~label:(Fmt.str "case %d: after" case) sinr ~senders
      ~perturb:None
  done

let test_reentrant_reception () =
  check_reentrant ~seed:83 ();
  let prev = Phys_tuning.cache_cap_bytes () in
  Phys_tuning.set_cache_cap_bytes 0;
  Fun.protect ~finally:(fun () -> Phys_tuning.set_cache_cap_bytes prev)
  @@ check_reentrant ~seed:84

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
      test_reliability_matches_seed_trial_loop;
    Alcotest.test_case "reach: decodes at exactly R" `Quick
      test_reach_boundary;
    Alcotest.test_case "reach: spread-out slots skip listeners" `Quick
      test_reach_spread;
    Alcotest.test_case "reach: spread-out slots, cap 0" `Quick
      test_reach_spread_scratch;
    Alcotest.test_case "reach: dense rule scores everyone" `Quick
      test_reach_dense_rule;
    Alcotest.test_case "reach: many decodes, ascending" `Quick
      test_reach_many_decodes;
    Alcotest.test_case "reach: jobs 2 = jobs 1" `Quick test_reach_parallel;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1207 |])
      prop_neighbours_superset;
    Alcotest.test_case "reentrant reception in a perturbed slot" `Quick
      test_reentrant_reception ]
