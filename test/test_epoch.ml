(* Structural tests of Algorithm 9.1's epoch machinery against the paper's
   supporting lemmas:

   - the distributed H~~ estimate contains no impossible edges and finds
     the near-neighbor links Lemma 10.14 guarantees;
   - the surviving sender sets S_1 ⊇ S_2 ⊇ ... thin monotonically and the
     minimum distance between survivors grows (Lemma 10.15's shape);
   - survivors of each phase form an independent set of the H~~ estimate
     under each node's own neighbor view. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_engine
open Sinr_mac

let cfg = Config.default

(* Run the machine over the engine, calling [on_phase phase members] at
   each phase boundary of the first full epoch where nodes participate. *)
let run_epoch ~seed ~n ~side ~on_phase =
  let rng = Rng.create seed in
  let points = Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1. in
  let sinr = Sinr.create cfg points in
  let lambda = Induced.lambda cfg points in
  let machine =
    Approx_progress.create Params.default_approg cfg ~lambda ~n
      ~rng:(Rng.split rng ~key:1)
  in
  let engine = Engine.create sinr in
  for v = 0 to n - 1 do
    Engine.wake engine v;
    Approx_progress.start machine ~node:v
      { Events.origin = v; seq = 0; data = v }
  done;
  while Approx_progress.epoch_index machine < 1 do
    ignore (Approx_progress.end_slot machine)
  done;
  let members () =
    List.filter
      (fun v -> Approx_progress.member machine ~node:v)
      (List.init n Fun.id)
  in
  let seen = ref (-1) in
  let epoch = Approx_progress.epoch_index machine in
  while Approx_progress.epoch_index machine = epoch do
    let phase = Approx_progress.current_phase machine in
    if phase <> !seen then begin
      seen := phase;
      on_phase ~phase ~members:(members ()) ~machine ~points
    end;
    let k =
      Engine.step_select engine
        ~select:
          (Engine.walk engine ~decide:(fun v ->
               Approx_progress.decide machine ~node:v))
    in
    for i = 0 to k - 1 do
      let u = Engine.receiver engine i in
      let v = Engine.sender_of engine u in
      Approx_progress.on_receive machine ~receiver:u ~sender:v
        (Engine.message engine v)
    done;
    ignore (Approx_progress.end_slot machine)
  done;
  points

let min_dist_of points = function
  | [] | [ _ ] -> Float.infinity
  | members ->
    let arr = Array.of_list members in
    let best = ref Float.infinity in
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            if u < v then
              best := Float.min !best (Point.dist points.(u) points.(v)))
          arr)
      arr;
    !best

let test_sender_sets_shrink () =
  let sizes = ref [] in
  ignore
    (run_epoch ~seed:11 ~n:60 ~side:24. ~on_phase:(fun ~phase:_ ~members ~machine:_ ~points:_ ->
         sizes := List.length members :: !sizes));
  let sizes = List.rev !sizes in
  Alcotest.(check bool) "several phases observed" true (List.length sizes >= 3);
  Alcotest.(check int) "everyone starts" 60 (List.hd sizes);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "S_phi shrinks monotonically" true (monotone sizes);
  Alcotest.(check bool) "substantial thinning" true
    (List.nth sizes (List.length sizes - 1) * 2 < List.hd sizes)

let test_min_distance_grows () =
  (* Lemma 10.15's shape: the minimum distance between surviving senders
     grows across phases (we require a strict overall increase and
     per-step non-collapse). *)
  let dists = ref [] in
  let points = ref [||] in
  let pts =
    run_epoch ~seed:13 ~n:70 ~side:24. ~on_phase:(fun ~phase:_ ~members ~machine:_ ~points:p ->
        points := p;
        dists := min_dist_of p members :: !dists)
  in
  ignore pts;
  let dists = List.rev !dists in
  (match dists with
   | first :: _ :: _ ->
     let last = List.nth dists (List.length dists - 1) in
     Alcotest.(check bool) "min distance grew" true
       (last > first *. 1.5 || last = Float.infinity)
   | _ -> Alcotest.fail "not enough phases")

let test_h_graph_sane () =
  (* The H~~ snapshot visible at a phase boundary was estimated by the
     *previous* phase's member set.  Pair them up and check: (a) no edge
     between nodes outside mutual transmission range, and (b) a decent
     fraction of the very close pairs among the estimating members are
     connected (the Lemma 10.14 regime). *)
  let checked = ref 0 in
  let close_pairs = ref 0 and close_connected = ref 0 in
  let prev_members = ref None in
  ignore
    (run_epoch ~seed:17 ~n:60 ~side:22. ~on_phase:(fun ~phase:_ ~members ~machine ~points ->
         (match (!prev_members, Approx_progress.last_h_graph machine) with
          | Some estimators, Some h ->
            incr checked;
            Graph.iter_edges h (fun u v ->
                Alcotest.(check bool) "edge within weak range" true
                  (Point.dist points.(u) points.(v)
                   <= Config.range cfg +. 1e-9));
            let arr = Array.of_list estimators in
            Array.iter
              (fun u ->
                Array.iter
                  (fun v ->
                    if u < v && Point.dist points.(u) points.(v) <= 2.5 then begin
                      incr close_pairs;
                      if Graph.mem_edge h u v then incr close_connected
                    end)
                  arr)
              arr
          | _ -> ());
         prev_members := Some members));
  Alcotest.(check bool) "snapshots were checked" true (!checked >= 2);
  Alcotest.(check bool) "close pairs existed" true (!close_pairs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "close pairs mostly connected (%d/%d)" !close_connected
       !close_pairs)
    true
    (float_of_int !close_connected >= 0.5 *. float_of_int !close_pairs)

let test_survivors_independent_in_h () =
  (* After each sparsification, the new member set must be independent in
     the H~~ snapshot that produced it (per-view independence; global
     violations are the paper's W-set and must be rare). *)
  let prev_h = ref None in
  let violations = ref 0 and checks = ref 0 in
  ignore
    (run_epoch ~seed:19 ~n:60 ~side:22. ~on_phase:(fun ~phase ~members ~machine ~points:_ ->
         (match (!prev_h, phase) with
          | Some h, p when p > 0 ->
            incr checks;
            if not (Mis_check.is_independent h members) then incr violations
          | _ -> ());
         prev_h := Approx_progress.last_h_graph machine));
  Alcotest.(check bool) "checks happened" true (!checks >= 2);
  Alcotest.(check bool) "independence violations rare" true (!violations <= 1)

(* The per-phase state of Algorithm 9.1 (temporary labels, the MIS
   machine, the H~~ snapshot) is sized by the phase's participants: the
   bytes allocated over one whole phase, boundaries included, must not
   grow from n = 1,000 to n = 100,000 with the same eight participants.
   Nobody hears anybody (no deliveries are fed), so the phase runs the
   same draws and the same transitions at both sizes. *)
let phase_bytes ~n =
  let machine =
    Approx_progress.create Params.default_approg cfg ~lambda:16. ~n
      ~rng:(Rng.create 5)
  in
  for v = 0 to 7 do
    Approx_progress.start machine ~node:(v * 97)
      { Events.origin = v * 97; seq = 0; data = v }
  done;
  while Approx_progress.epoch_index machine < 1 do
    ignore (Approx_progress.end_slot machine)
  done;
  let slot () =
    Node_set.iter (Approx_progress.contenders machine) (fun v ->
        ignore (Approx_progress.decide machine ~node:v));
    ignore (Approx_progress.end_slot machine)
  in
  (* The window is epoch 1's phase 0, from its first slot to phase 1's
     (Phi = 4 phases per epoch at Lambda = 16). *)
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  while Approx_progress.current_phase machine < 1 do
    slot ()
  done;
  let bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check bool) "the phase elected its members" true
    (Approx_progress.last_h_graph machine <> None);
  bytes

let test_phase_alloc_flat_in_n () =
  let small = phase_bytes ~n:1_000 and large = phase_bytes ~n:100_000 in
  if large > small then
    Alcotest.failf "phase allocation grew with n: %.0f B at n = 1000, %.0f B \
                    at n = 100000" small large

let suite =
  [ Alcotest.test_case "phase allocation flat in n" `Quick
      test_phase_alloc_flat_in_n; Alcotest.test_case "sender sets shrink" `Slow test_sender_sets_shrink;
    Alcotest.test_case "min distance grows (Lemma 10.15)" `Slow
      test_min_distance_grows;
    Alcotest.test_case "H~~ estimate sane (Lemma 10.14)" `Slow
      test_h_graph_sane;
    Alcotest.test_case "survivors independent in H~~" `Slow
      test_survivors_independent_in_h ]
