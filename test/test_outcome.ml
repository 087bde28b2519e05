(* The slot outcome read in place, and the sparse kernel's silence
   pre-filter.

   - Engine.step_select leaves a slot's outcome in the engine's buffers;
     the list wrapper Engine.step builds records from the same outcome.
     On generated deployments of every Placement family (n <= 300), with
     the sparse kernel forced on and off, two engines driven by the same
     draws must report the same (receiver, sender, message) triples, the
     list's power must be Sinr.power, and on the exact kernel both must
     equal Sinr.resolve_reference.
   - Sparse declares a listener silent from squared distances before any
     power is evaluated.  Each listener is resolved on its own (every
     other node marked) so the silent counter speaks for it alone: a
     silent listener has no sender within Config.range, and every
     decision equals the full sum, for alpha = 3 and for other alpha (the
     pow branch).
   - With every listener resolved together, each decision is best >=
     beta (N + interference - best) with the kernel's own interference,
     over every family tiled past three far thresholds; a ring of
     listeners whose margins fall inside the far bound takes the exact
     far sum, and tied loudest senders resolve to the first in sorted
     order. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_obs

let cfg = Config.default

let with_sparse f =
  let pt = Phys_tuning.sparse_threshold () in
  Phys_tuning.set_sparse_threshold 1;
  Fun.protect ~finally:(fun () -> Phys_tuning.set_sparse_threshold pt) f

(* A deployment of about [n] nodes from one of the Placement families,
   scaled to the default range R = 12 so that each has both decoding and
   silent pairs; a dense part's radius grows with its node count so that
   the unit minimum distance stays easy to meet. *)
let families = 9

let deployment rng ~family ~n =
  let r = Config.range cfg in
  let room k base = Float.max base (1.3 *. sqrt (float_of_int k)) in
  match family with
  | 0 ->
    let side = 1.5 *. r *. sqrt (float_of_int n /. 8.) in
    Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.
  | 1 ->
    let side = 1.5 *. r *. sqrt (float_of_int n /. 8.) in
    let soa = Soa.create ~n in
    Placement.uniform_stream rng ~n ~box:(Box.square ~side) ~min_dist:1.
      ~set:(fun i ~x ~y -> Soa.set soa i ~x ~y)
      ~x:(Soa.x soa) ~y:(Soa.y soa);
    Soa.to_points soa
  | 2 ->
    let nx = max 1 (int_of_float (sqrt (float_of_int n))) in
    Placement.jittered_grid rng ~nx ~ny:(max 1 (n / nx)) ~spacing:4.
      ~jitter:1.
  | 3 -> Placement.line ~n ~spacing:(1. +. Rng.float rng 8.)
  | 4 ->
    Placement.line_with_blob rng ~line_n:(max 1 (n / 2)) ~spacing:6.
      ~blob_n:(max 1 (n - (n / 2)))
      ~blob_radius:(room (n - (n / 2)) (0.8 *. r))
  | 5 ->
    let k = 1 + Rng.int rng 4 in
    Placement.clusters rng ~k ~per_cluster:(max 1 (n / k))
      ~cluster_radius:(room (n / k) (0.6 *. r))
      ~centers_box:(Box.square ~side:(8. *. r))
  | 6 ->
    (Placement.two_lines ~delta:(max 1 (n / 2)) ~spacing:1.
       ~gap:(0.5 *. r))
      .Placement.points
  | 7 ->
    let radius = room n (r /. 4.) in
    (Placement.two_balls rng ~delta:(max 1 (n - 2)) ~radius
       ~center_dist:(2. *. radius +. r))
      .Placement.points
  | _ ->
    (Placement.star rng ~delta:(max 1 (n - 1)) ~radius:(room n (0.9 *. r)))
      .Placement.points

(* ---------------- in-place outcome = list wrapper ---------------- *)

(* One scripted run on [sinr]: the same per-slot draws, wakes and crashes
   drive an engine read in place and an engine read through the list. *)
let outcome_run ~seed sinr =
  let n = Sinr.n sinr in
  let r = Rng.create seed in
  let a = Engine.create sinr and b = Engine.create sinr in
  let exact = Sinr.sparse sinr = None in
  let both f = f a; f b in
  for v = 0 to n - 1 do
    if Rng.hash_unit r (-1) v < 0.4 then both (fun e -> Engine.wake e v)
  done;
  for slot = 0 to 24 do
    let v = Rng.int r n in
    (match Rng.int r 6 with
     | 0 -> both (fun e -> Engine.crash e v)
     | 1 -> both (fun e -> Engine.revive e v)
     | _ -> both (fun e -> Engine.wake e v));
    let p = 0.05 +. Rng.float r 0.3 in
    let sends v = Rng.hash_unit r slot v < p in
    let senders = ref [] in
    let k =
      Engine.step_select a
        ~select:
          (Engine.walk a ~decide:(fun v ->
               if sends v then begin
                 senders := v :: !senders;
                 Some (100 + v)
               end
               else None))
    in
    let got =
      List.init k (fun i ->
          let u = Engine.receiver a i in
          let s = Engine.sender_of a u in
          (u, s, Engine.message a s))
    in
    let ds =
      Engine.step b ~decide:(fun v ->
          if sends v then Engine.Transmit (100 + v) else Engine.Listen)
    in
    let label what = Printf.sprintf "seed %d slot %d: %s" seed slot what in
    Alcotest.(check (list (triple int int int)))
      (label "in place = list")
      (List.map
         (fun (d : int Engine.delivery) ->
           (d.Engine.receiver, d.Engine.sender, d.Engine.message))
         ds)
      got;
    List.iter
      (fun (d : int Engine.delivery) ->
        Alcotest.(check bool) (label "power = Sinr.power") true
          (Float.equal d.Engine.power
             (Sinr.power sinr ~sender:d.Engine.sender
                ~receiver:d.Engine.receiver)))
      ds;
    if exact && !senders <> [] then begin
      (* [!senders] is descending, the engine's resolution order. *)
      let want = Sinr.resolve_reference sinr ~senders:!senders in
      let expected = ref [] in
      for u = n - 1 downto 0 do
        match want.(u) with
        | Some s when not (Engine.is_crashed a u) ->
          expected := (u, s, 100 + s) :: !expected
        | Some _ | None -> ()
      done;
      Alcotest.(check (list (triple int int int)))
        (label "in place = resolve_reference") !expected got
    end
  done;
  Alcotest.(check int) "delivery totals" (Engine.delivery_total b)
    (Engine.delivery_total a);
  for v = 0 to n - 1 do
    Alcotest.(check bool) "awake maps" (Engine.is_awake b v)
      (Engine.is_awake a v)
  done

let prop_outcome =
  QCheck.Test.make ~name:"engine: in-place outcome = list = reference"
    ~count:60
    QCheck.(triple (int_range 1 100_000) (int_range 0 (families - 1)) bool)
    (fun (seed, family, sparse) ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 299 in
      let pts = deployment rng ~family ~n in
      let sinr =
        if sparse then with_sparse (fun () -> Sinr.create cfg pts)
        else Sinr.create cfg pts
      in
      assert (Option.is_some (Sinr.sparse sinr) = sparse);
      outcome_run ~seed sinr;
      true)

(* ---------------- sparse silence pre-filter ---------------- *)

(* The kernel's own power expression (Sparse's [pow_alpha]). *)
let link_power (c : Config.t) d2 =
  c.Config.power
  /. (if c.Config.alpha = 3. then d2 *. sqrt d2
      else d2 ** (c.Config.alpha /. 2.))

(* Listener [u] resolved alone: every other node is marked, so the
   kernel visits only [u].  Returns (decoded sender or -1, reported
   silent). *)
let resolve_alone sp ~n ~ids u =
  let mark = Bytes.make n '\001' in
  Bytes.set mark u '\000';
  let sender = Array.make n (-1) and receivers = Array.make n 0 in
  let silent () =
    Option.value ~default:0 (Metrics.counter_peek "phys.sparse.silent_listeners")
  in
  let s0 = silent () in
  let k =
    Sparse.resolve sp ~ids ~nsend:(Array.length ids) ~listeners:1 ~mark ~sender
      ~receivers
  in
  ((if k > 0 then sender.(u) else -1), silent () - s0 = 1)

let silence_run ~seed ~alpha =
  let c = Config.with_range ~alpha ~range:12. () in
  let r = Config.range c in
  let rng = Rng.create seed in
  let n = 10 + Rng.int rng 50 in
  let side = (1. +. Rng.float rng 3.) *. r in
  let pts = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  let soa = Soa.of_points pts in
  let sp = Sparse.create c soa ~eps:0.5 in
  let ids =
    Array.of_list
      (List.filter (fun _ -> Rng.bernoulli rng 0.15) (List.init n Fun.id))
  in
  let silent_seen = ref 0 in
  if Array.length ids > 0 then
    for u = 0 to n - 1 do
      if not (Array.mem u ids) then begin
        let got, silent = resolve_alone sp ~n ~ids u in
        let label what =
          Printf.sprintf "seed %d alpha %g listener %d: %s" seed alpha u what
        in
        if silent then begin
          incr silent_seen;
          Array.iter
            (fun v ->
              Alcotest.(check bool) (label "silent, yet a sender in range")
                true
                (Soa.dist soa v u > r))
            ids;
          Alcotest.(check int) (label "silent listener decoded") (-1) got
        end;
        (* The decision of the full computation: strongest sender by the
           kernel's own power expression, against its interference sum. *)
        let total = Sparse.interference sp ~ids ~nsend:(Array.length ids) ~receiver:u in
        let best = ref (-1) and best_pw = ref 0. in
        Array.iter
          (fun v ->
            let pw = link_power c (Soa.dist2 soa v u) in
            if pw > !best_pw then begin
              best_pw := pw;
              best := v
            end)
          ids;
        let want =
          if !best >= 0
             && !best_pw >= c.Config.beta *. (c.Config.noise +. total -. !best_pw)
          then !best
          else -1
        in
        Alcotest.(check int) (label "decision = full sum") want got
      end
    done;
  !silent_seen

let prop_silence =
  QCheck.Test.make ~name:"sparse: silent listeners have no sender in range"
    ~count:80
    QCheck.(pair (int_range 1 100_000) bool)
    (fun (seed, alpha3) ->
      let alpha =
        if alpha3 then 3. else 2.1 +. Rng.float (Rng.create (seed + 7)) 3.9
      in
      Metrics.reset_for_tests ();
      Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
      Metrics.set_enabled true;
      ignore (silence_run ~seed ~alpha : int);
      true)

(* Both branches of the pre-filter engage on these seeds: some listeners
   are silent and some decode, at alpha = 3 and at alpha = 4.5. *)
let test_silence_engages () =
  Metrics.reset_for_tests ();
  Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
  Metrics.set_enabled true;
  List.iter
    (fun alpha ->
      let silent = ref 0 in
      for seed = 1 to 10 do
        silent := !silent + silence_run ~seed ~alpha
      done;
      Alcotest.(check bool)
        (Printf.sprintf "alpha %g: silent listeners seen" alpha)
        true (!silent > 0))
    [ 3.; 4.5 ];
  Alcotest.(check bool) "some listener scored" true
    (Option.value ~default:0 (Metrics.counter_peek "phys.sparse.near_links") > 0)

(* ---------------- sparse decisions = the full sum ---------------- *)

(* The decision the kernel must reach at listener [u]: the strongest
   sender by the kernel's own power expression (ties are broken below),
   against the oracle interference, which adds the terms in the kernel's
   order. *)
let sum_decision sp c ~soa ~ids u =
  let total = Sparse.interference sp ~ids ~nsend:(Array.length ids) ~receiver:u in
  let best = Array.fold_left (fun b v -> Float.max b (link_power c (Soa.dist2 soa v u))) 0. ids in
  (best, best > 0. && best >= c.Config.beta *. (c.Config.noise +. total -. best))

(* Resolve [ids] on [sp] with every other node listening, and check every
   listener against [sum_decision]: decoded exactly when the test passes,
   from a sender of the best power.  Returns how many decoded. *)
let check_decisions ~label sp c ~soa ~ids =
  let n = Soa.length soa in
  let mark = Bytes.make n '\000' in
  Array.iter (fun v -> Bytes.set mark v '\001') ids;
  let sender = Array.make n (-1) and receivers = Array.make n 0 in
  let k =
    Sparse.resolve sp ~ids ~nsend:(Array.length ids)
      ~listeners:(n - Array.length ids) ~mark ~sender ~receivers
  in
  for u = 0 to n - 1 do
    if Bytes.get mark u = '\000' then begin
      let best, decodes = sum_decision sp c ~soa ~ids u in
      let got = sender.(u) in
      if decodes <> (got >= 0) then
        Alcotest.failf "%s: listener %d decodes %b, the full sum says %b" label u
          (got >= 0) decodes;
      if got >= 0 && not (Float.equal (link_power c (Soa.dist2 soa got u)) best) then
        Alcotest.failf "%s: listener %d decoded a sender below the best power" label u
    end
  done;
  Array.iter (fun v -> if sender.(v) <> -1 then Alcotest.failf "%s: sender %d decoded" label v) ids;
  k

(* A deployment from [family], tiled three times along x with offsets of
   1.6 far thresholds (Sparse's split distance on an undoubled grid), so
   the box spans more than 3 thresholds and far cells exist. *)
let tiled rng ~family c ~eps =
  let r = Config.range c in
  let cf = Float.max 1. (r /. 2.) in
  let h = 5. *. cf *. sqrt 2. /. 2. in
  let thr = Float.max (h /. (((1. +. eps) ** (1. /. c.Config.alpha)) -. 1.)) (r +. h) in
  let base = deployment rng ~family ~n:(20 + Rng.int rng 30) in
  let bb = Box.of_points base in
  let off = Float.max (1.6 *. thr) (Box.width bb +. 2.) in
  let tile t =
    Placement.translate
      (Point.make ((float_of_int t *. off) -. bb.Box.xmin) (-.bb.Box.ymin))
      base
  in
  (Array.concat (List.init 3 tile), thr)

let decisions_run ~seed ~alpha =
  let rng = Rng.create seed in
  let c = Config.with_range ~alpha ~range:12. () in
  let eps = 0.4 +. Rng.float rng 0.55 in
  let family = seed mod families in
  let pts, thr = tiled rng ~family c ~eps in
  let soa = Soa.of_points pts in
  let sp = Sparse.create c soa ~eps in
  let label = Printf.sprintf "seed %d family %d alpha %g eps %.3g" seed family alpha eps in
  Alcotest.(check (float 1e-6)) (label ^ ": undoubled grid") thr (Sparse.far_threshold sp);
  let bb = Box.of_points pts in
  Alcotest.(check bool) (label ^ ": box spans 3 far thresholds") true
    (Box.width bb >= 3. *. thr);
  let n = Array.length pts in
  for case = 0 to 1 do
    let p = 0.05 +. Rng.float rng 0.3 in
    let ids =
      Array.of_list (List.filter (fun _ -> Rng.bernoulli rng p) (List.init n Fun.id))
    in
    if Array.length ids > 0 then
      ignore (check_decisions ~label:(Printf.sprintf "%s case %d" label case) sp c ~soa ~ids : int)
  done

let prop_decisions =
  QCheck.Test.make ~name:"sparse: every decision = best >= beta (N + interference - best)"
    ~count:36
    QCheck.(pair (int_range 1 100_000) bool)
    (fun (seed, alpha3) ->
      let alpha =
        if alpha3 then 3. else 2.1 +. Rng.float (Rng.create (seed + 11)) 3.9
      in
      decisions_run ~seed ~alpha;
      true)

(* A sender ringed by listeners from 8.5 to 12 away (range 12) and a
   1024-sender block about 215 away, in far cells: its interference moves
   the decoding edge to ~11.1, inside the far bound's reach (~9.8), so the
   ring's outer listeners can be decided only by the exact far sum. *)
let test_far_exact_margins () =
  Metrics.reset_for_tests ();
  Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
  Metrics.set_enabled true;
  let c = cfg in
  let ring =
    List.init 36 (fun i ->
        let r = 8.5 +. (0.1 *. float_of_int i)
        and a = 2. *. Float.pi *. 0.6180339887 *. float_of_int i in
        Point.make (300. +. (r *. cos a)) (300. +. (r *. sin a)))
  in
  let block =
    List.init 1024 (fun i ->
        Point.make (500. +. (1.05 *. float_of_int (i mod 32)))
          (284. +. (1.05 *. float_of_int (i / 32))))
  in
  let pts = Array.of_list ((Point.make 300. 300. :: ring) @ block) in
  Alcotest.(check bool) "unit minimum distance" true (Placement.min_pairwise_dist pts >= 1.);
  let soa = Soa.of_points pts in
  let sp = Sparse.create c soa ~eps:0.5 in
  let ids = Array.init 1025 (fun i -> if i = 0 then 0 else 36 + i) in
  let k = check_decisions ~label:"ring" sp c ~soa ~ids in
  let exact = Option.value ~default:0 (Metrics.counter_peek "phys.sparse.far_exact") in
  Alcotest.(check bool) "the exact far sum was taken" true (exact > 0);
  Alcotest.(check bool)
    (Printf.sprintf "the ring splits inside the far bound (%d of 36 decode)" k)
    true (k > 14 && k < 30)

(* Equal loudest powers: at beta = 1 and negligible noise a tie still
   decodes, from the first sender in the kernel's sorted order (fine
   cell, then input position) -- the near scan's choice. *)
let test_tie_first_sender () =
  let c = { (Config.with_range ~range:12. ()) with Config.beta = 1.; noise = 1e-20 } in
  let pts = [| Point.make 100. 100.; Point.make 97. 100.; Point.make 103. 100. |] in
  let soa = Soa.of_points pts in
  let sp = Sparse.create c soa ~eps:0.5 in
  List.iter
    (fun ids ->
      let mark = Bytes.of_string "\000\001\001" in
      let sender = Array.make 3 (-1) and receivers = Array.make 3 0 in
      let k = Sparse.resolve sp ~ids ~nsend:2 ~listeners:1 ~mark ~sender ~receivers in
      Alcotest.(check (pair int int))
        (Printf.sprintf "senders %d, %d" ids.(0) ids.(1))
        (1, ids.(0)) (k, sender.(0)))
    [ [| 1; 2 |]; [| 2; 1 |] ]

let fixed_rand () = Random.State.make [| 1505 |]

let suite =
  [ QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_outcome;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_silence;
    Alcotest.test_case "sparse: silence pre-filter engages" `Quick
      test_silence_engages;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand ()) prop_decisions;
    Alcotest.test_case "sparse: margins inside the far bound" `Quick
      test_far_exact_margins;
    Alcotest.test_case "sparse: loudest ties go to the first sender" `Quick
      test_tie_first_sender ]
