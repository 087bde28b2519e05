(* Measurement drivers for the absMAC implementations.

   These harnesses run a deployment under a chosen algorithm and extract
   the quantities the paper's theorems bound:

   - f_ack samples      (Theorem 5.1 / Remark 5.3): bcast -> ack delay and
                        whether every strong neighbor received the payload
                        before the ack ("nice" broadcasts, Definition 12.2);
   - f_approg samples   (Theorem 9.1 / Definition 7.1): for each listener
                        with a broadcasting G_{1-2eps}-neighbor, the delay
                        until a rcv from a G_{1-eps}-neighbor;
   - Decay progress     (Theorem 8.1): the same event under the Decay
                        strategy, for the lower-bound comparison. *)

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

(* Broadcast continuously from [senders] (re-bcast on every ack so the
   broadcasts stay ongoing) and record, for every covered listener, the
   first slot with a rcv transmitted by a G_{1-eps}-neighbor. *)
let approx_progress ?ack_params ?approg_params sinr ~rng ~senders ~max_slots =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let mac = Combined_mac.create ?ack_params ?approg_params sinr ~rng in
  let strong = Induced.strong config (Sinr.points sinr) in
  let approx = Induced.approx config (Sinr.points sinr) in
  let listeners = covered_listeners ~approx_graph:approx ~senders ~n in
  let first = Array.make n None in
  let remaining = ref (List.length listeners) in
  let watched = Array.make n false in
  List.iter (fun i -> watched.(i) <- true) listeners;
  Combined_mac.set_raw_rcv_hook mac (fun ev ->
      let i = ev.Approx_progress.node in
      if watched.(i) && first.(i) = None
         && Graph.mem_edge strong i ev.Approx_progress.from
      then begin
        first.(i) <- Some (Combined_mac.now mac);
        decr remaining
      end);
  Combined_mac.set_handlers mac
    { Absmac_intf.on_rcv = (fun ~node:_ ~payload:_ -> ());
      on_ack =
        (fun ~node ~payload ->
          (* Keep the broadcast ongoing for the whole measurement. *)
          ignore (Combined_mac.bcast mac ~node ~data:payload.Events.data)) };
  List.iter
    (fun v -> ignore (Combined_mac.bcast mac ~node:v ~data:v))
    senders;
  let budget = ref max_slots in
  while !remaining > 0 && !budget > 0 do
    Combined_mac.step mac;
    decr budget
  done;
  List.map (fun i -> { listener = i; delay = first.(i) }) listeners

(* Algorithm 9.1 in isolation: the approximate-progress machine runs on
   every slot, with no acknowledgment algorithm interleaved.  Exposes the
   epoch machinery itself (H~~ estimation, MIS sparsification, p/Q data
   slots) — the quantity Theorem 9.1 bounds. *)
let approx_progress_only ?(params = Params.default_approg) sinr ~rng ~senders
    ~max_slots =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let strong = Induced.strong config (Sinr.points sinr) in
  let approx = Induced.approx config (Sinr.points sinr) in
  let lambda = Induced.lambda config (Sinr.points sinr) in
  let machine = Approx_progress.create params config ~lambda ~n ~rng in
  let engine = Engine.create sinr in
  List.iter
    (fun v ->
      Engine.wake engine v;
      Approx_progress.start machine ~node:v
        { Events.origin = v; seq = 0; data = v })
    senders;
  let listeners = covered_listeners ~approx_graph:approx ~senders ~n in
  let first = Array.make n None in
  let remaining = ref (List.length listeners) in
  let watched = Array.make n false in
  List.iter (fun i -> watched.(i) <- true) listeners;
  let budget = ref max_slots in
  while !remaining > 0 && !budget > 0 do
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
    let rcvs = Approx_progress.end_slot machine in
    List.iter
      (fun ev ->
        let i = ev.Approx_progress.node in
        if watched.(i) && first.(i) = None
           && Graph.mem_edge strong i ev.Approx_progress.from
        then begin
          first.(i) <- Some (Engine.slot engine);
          decr remaining
        end)
      rcvs;
    decr budget
  done;
  (List.map (fun i -> { listener = i; delay = first.(i) }) listeners, machine)

(* The oracle machine under the same driver shape: used by the
   coordination-overhead ablation. *)
let approx_progress_oracle ?(params = Params.default_approg) sinr ~rng
    ~senders ~max_slots =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let strong = Induced.strong config (Sinr.points sinr) in
  let approx = Induced.approx config (Sinr.points sinr) in
  let machine = Approx_oracle.create params sinr ~rng in
  let engine = Engine.create sinr in
  List.iter
    (fun v ->
      Engine.wake engine v;
      Approx_oracle.start machine ~node:v
        { Events.origin = v; seq = 0; data = v })
    senders;
  let listeners = covered_listeners ~approx_graph:approx ~senders ~n in
  let first = Array.make n None in
  let remaining = ref (List.length listeners) in
  let watched = Array.make n false in
  List.iter (fun i -> watched.(i) <- true) listeners;
  let budget = ref max_slots in
  while !remaining > 0 && !budget > 0 do
    let k =
      Engine.step_select engine
        ~select:
          (Engine.walk engine ~decide:(fun v ->
               Approx_oracle.decide machine ~node:v))
    in
    for i = 0 to k - 1 do
      let u = Engine.receiver engine i in
      let v = Engine.sender_of engine u in
      Approx_oracle.on_receive machine ~receiver:u ~sender:v
        (Engine.message engine v)
    done;
    let rcvs = Approx_oracle.end_slot machine in
    List.iter
      (fun ev ->
        let i = ev.Approx_progress.node in
        if watched.(i) && first.(i) = None
           && Graph.mem_edge strong i ev.Approx_progress.from
        then begin
          first.(i) <- Some (Engine.slot engine);
          decr remaining
        end)
      rcvs;
    decr budget
  done;
  List.map (fun i -> { listener = i; delay = first.(i) }) listeners

(* ------------------------------------------------------------------ *)
(* Decay progress (Theorem 8.1 comparison)                              *)
(* ------------------------------------------------------------------ *)

(* Run the bare Decay strategy from [senders]; record for each covered
   listener the first slot it decodes any sender's payload from a strong
   neighbor. *)
let decay_progress ?n_tilde sinr ~rng ~senders ~max_slots =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let strong = Induced.strong config (Sinr.points sinr) in
  let approx = Induced.approx config (Sinr.points sinr) in
  let lambda = Induced.lambda config (Sinr.points sinr) in
  let n_tilde =
    match n_tilde with
    | Some v -> v
    | None -> Params.contention_default ~lambda
  in
  let decay = Decay.create ~n_tilde ~n ~rng in
  let engine = Engine.create sinr in
  List.iter
    (fun v ->
      Engine.wake engine v;
      Decay.start decay ~node:v ~slot:0
        { Events.origin = v; seq = 0; data = v })
    senders;
  let listeners = covered_listeners ~approx_graph:approx ~senders ~n in
  let first = Array.make n None in
  let remaining = ref (List.length listeners) in
  let watched = Array.make n false in
  List.iter (fun i -> watched.(i) <- true) listeners;
  let budget = ref max_slots in
  while !remaining > 0 && !budget > 0 do
    let slot = Engine.slot engine in
    let k =
      Engine.step_select engine
        ~select:
          (Engine.walk engine ~decide:(fun v ->
               Decay.decide decay ~node:v ~slot))
    in
    for j = 0 to k - 1 do
      let i = Engine.receiver engine j in
      if watched.(i) && first.(i) = None
         && Graph.mem_edge strong i (Engine.sender_of engine i)
      then begin
        first.(i) <- Some (Engine.slot engine);
        decr remaining
      end
    done;
    decr budget
  done;
  List.map
    (fun i -> { listener = i; delay = first.(i) })
    listeners
