(* Measurement drivers for the absMAC implementations.

   These harnesses run a deployment under a chosen algorithm and extract
   the quantities the paper's theorems bound:

   - f_ack samples      (Theorem 5.1 / Remark 5.3): bcast -> ack delay and
                        whether every strong neighbor received the payload
                        before the ack ("nice" broadcasts, Definition 12.2);
   - f_approg samples   (Theorem 9.1 / Definition 7.1): for each listener
                        with a broadcasting G_{1-2eps}-neighbor, the delay
                        until a rcv from a G_{1-eps}-neighbor, under
                        Algorithm 9.1 alone or its oracle variant. *)

open Sinr_graph
open Sinr_phys
open Sinr_engine

(* ------------------------------------------------------------------ *)
(* Acknowledgments                                                      *)
(* ------------------------------------------------------------------ *)

type ack_sample = {
  sender : int;
  delay : int;          (* engine slots from bcast to ack *)
  capped : bool;        (* ack forced by the f_ack cap, not a B.1 halt *)
  neighbors : int;      (* |N_{G_{1-eps}}(sender)| *)
  reached : int;        (* neighbors that got a rcv of the payload first *)
}

(* Broadcast from every node of [senders] simultaneously at slot 0 and run
   the combined MAC until every ack fired (or max_slots).  The
   simultaneous-senders setting is the contention regime Remark 5.3's lower
   bound speaks about. *)
let acks ?ack_params ?approg_params sinr ~rng ~senders ~max_slots =
  let mac = Combined_mac.create ?ack_params ?approg_params sinr ~rng in
  let strong = Induced.strong (Sinr.config sinr) (Sinr.points sinr) in
  let pending = Hashtbl.create 16 in (* origin -> set of neighbors reached *)
  let results = ref [] in
  let outstanding = ref 0 in
  let handlers =
    { Absmac_intf.on_rcv =
        (fun ~node ~payload ->
          match Hashtbl.find_opt pending payload.Events.origin with
          | Some reached -> Hashtbl.replace reached node ()
          | None -> ());
      on_ack =
        (fun ~node ~payload ->
          match Hashtbl.find_opt pending payload.Events.origin with
          | None -> ()
          | Some reached ->
            Hashtbl.remove pending payload.Events.origin;
            decr outstanding;
            let nbrs = Graph.neighbors strong node in
            let got =
              Array.fold_left
                (fun acc u -> if Hashtbl.mem reached u then acc + 1 else acc)
                0 nbrs
            in
            let delay = Combined_mac.now mac in
            results :=
              { sender = node;
                delay;
                capped = Combined_mac.last_ack_capped mac ~node;
                neighbors = Array.length nbrs;
                reached = got }
              :: !results) }
  in
  Combined_mac.set_handlers mac handlers;
  List.iter
    (fun v ->
      Hashtbl.replace pending v (Hashtbl.create 8);
      incr outstanding;
      ignore (Combined_mac.bcast mac ~node:v ~data:v))
    senders;
  let budget = ref max_slots in
  while !outstanding > 0 && !budget > 0 do
    Combined_mac.step mac;
    decr budget
  done;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Approximate progress                                                 *)
(* ------------------------------------------------------------------ *)

type approg_sample = {
  listener : int;
  delay : int option;  (* first rcv from a strong neighbor, engine slots *)
}

(* Listeners covered by Definition 7.1: non-senders with at least one
   broadcasting G~-neighbor. *)
let covered_listeners ~approx_graph ~senders ~n =
  let is_sender = Array.make n false in
  List.iter (fun v -> is_sender.(v) <- true) senders;
  List.filter
    (fun i ->
      (not is_sender.(i))
      && Array.exists (fun u -> is_sender.(u)) (Graph.neighbors approx_graph i))
    (List.init n Fun.id)

(* Alg 9.1's progress driver, shared by the real machine and the oracle:
   [start] every sender, then run the machine on every slot (no
   acknowledgment interleave) and record, for every covered listener, the
   first slot with a rcv transmitted by a G_{1-eps}-neighbor.  The caller
   creates the machine; the driver itself draws nothing from the RNG. *)
let progress_run sinr ~senders ~max_slots ~start ~decide ~on_receive
    ~end_slot =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let strong = Induced.strong config (Sinr.points sinr) in
  let approx = Induced.approx config (Sinr.points sinr) in
  let engine = Engine.create sinr in
  List.iter
    (fun v ->
      Engine.wake engine v;
      start ~node:v { Events.origin = v; seq = 0; data = v })
    senders;
  let listeners = covered_listeners ~approx_graph:approx ~senders ~n in
  let first = Array.make n None in
  let remaining = ref (List.length listeners) in
  let watched = Array.make n false in
  List.iter (fun i -> watched.(i) <- true) listeners;
  let budget = ref max_slots in
  while !remaining > 0 && !budget > 0 do
    let k =
      Engine.step_select engine ~select:(Engine.walk engine ~decide)
    in
    for i = 0 to k - 1 do
      let u = Engine.receiver engine i in
      let v = Engine.sender_of engine u in
      on_receive ~receiver:u ~sender:v (Engine.message engine v)
    done;
    List.iter
      (fun ev ->
        let i = ev.Approx_progress.node in
        if watched.(i) && first.(i) = None
           && Graph.mem_edge strong i ev.Approx_progress.from
        then begin
          first.(i) <- Some (Engine.slot engine);
          decr remaining
        end)
      (end_slot ());
    decr budget
  done;
  List.map (fun i -> { listener = i; delay = first.(i) }) listeners

(* Algorithm 9.1 in isolation: exposes the epoch machinery itself (H~~
   estimation, MIS sparsification, p/Q data slots) — the quantity Theorem
   9.1 bounds. *)
let approx_progress_only ?(params = Params.default_approg) sinr ~rng ~senders
    ~max_slots =
  let config = Sinr.config sinr in
  let lambda = Induced.lambda config (Sinr.points sinr) in
  let m = Approx_progress.create params config ~lambda ~n:(Sinr.n sinr) ~rng in
  let samples =
    progress_run sinr ~senders ~max_slots ~start:(Approx_progress.start m)
      ~decide:(fun v -> Approx_progress.decide m ~node:v)
      ~on_receive:(Approx_progress.on_receive m)
      ~end_slot:(fun () -> Approx_progress.end_slot m)
  in
  (samples, m)

(* The oracle machine under the same driver: used by the
   coordination-overhead ablation. *)
let approx_progress_oracle ?(params = Params.default_approg) sinr ~rng
    ~senders ~max_slots =
  let m = Approx_oracle.create params sinr ~rng in
  progress_run sinr ~senders ~max_slots ~start:(Approx_oracle.start m)
    ~decide:(fun v -> Approx_oracle.decide m ~node:v)
    ~on_receive:(Approx_oracle.on_receive m)
    ~end_slot:(fun () -> Approx_oracle.end_slot m)
