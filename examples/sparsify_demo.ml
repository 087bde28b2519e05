(* Sparsification demo: watch Algorithm 9.1 thin the sender set.

   An ASCII rendering of one epoch: each phase starts from the surviving
   sender set S_phi, estimates the reliability graph over the air, runs the
   non-unique-label MIS and keeps only the dominators.  The intuition of
   paper Section 9.1 — "the minimum distance between remaining senders
   doubles every phase" — is visible directly in the pictures.

     dune exec examples/sparsify_demo.exe *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_mac

let side = 26.

let render points members =
  let cols = 52 and rows = 26 in
  let grid = Array.make_matrix rows cols ' ' in
  Array.iteri
    (fun v (p : Point.t) ->
      let cx =
        min (cols - 1) (max 0 (int_of_float (p.Point.x /. side *. float_of_int cols)))
      in
      let cy =
        min (rows - 1) (max 0 (int_of_float (p.Point.y /. side *. float_of_int rows)))
      in
      let mark = if members.(v) then '#' else '.' in
      (* A member mark always wins the cell. *)
      if grid.(cy).(cx) <> '#' then grid.(cy).(cx) <- mark)
    points;
  Array.iter (fun row -> print_endline (String.init cols (Array.get row))) grid

let () =
  let rng = Rng.create 2718 in
  let n = 70 in
  let points =
    Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.
  in
  let config = Config.default in
  let sinr = Sinr.create config points in
  let lambda = Induced.lambda config points in
  let machine =
    Approx_progress.create Params.default_approg config ~lambda ~n
      ~rng:(Rng.split rng ~key:1)
  in
  let engine = Engine.create sinr in
  (* Everyone has an ongoing broadcast: the densest S_1 possible. *)
  for v = 0 to n - 1 do
    Engine.wake engine v;
    Approx_progress.start machine ~node:v
      { Events.origin = v; seq = 0; data = v }
  done;
  let sched = Approx_progress.schedule machine in
  Fmt.pr "n=%d  Lambda=%.1f  Phi=%d phases, epoch=%d slots@." n lambda
    sched.Params.phi sched.Params.epoch_slots;
  let members () = Array.init n (fun v -> Approx_progress.member machine ~node:v) in
  let count ms = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ms in
  let shown = ref (-1) in
  (* Run one epoch; snapshot at each phase boundary.  The machine joins
     everyone at the *second* epoch (conditional join at boundaries), so run
     through epoch 1 silently first. *)
  while Approx_progress.epoch_index machine < 1 do
    ignore (Approx_progress.end_slot machine)
  done;
  let start_epoch = Approx_progress.epoch_index machine in
  while Approx_progress.epoch_index machine = start_epoch do
    let phase = Approx_progress.current_phase machine in
    if phase <> !shown then begin
      shown := phase;
      let ms = members () in
      Fmt.pr "@.--- phase %d: |S_%d| = %d senders ('#'; '.' = silent) ---@."
        (phase + 1) (phase + 1) (count ms);
      render points ms
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
  Fmt.pr "@.epoch complete: every phase kept an independent set of the \
          estimated reliability graph, thinning the competition until the \
          data slots could get through.@."
