(* Oracle variant of Algorithm 9.1.

   Same epoch/phase/data structure as {!Approx_progress}, but the two
   coordination products — the reliability graph H^mu_p[S_phi] and the MIS
   S_{phi+1} — are computed centrally (Monte-Carlo H estimation plus greedy
   MIS over random priorities) instead of being negotiated over the air.
   Only the p/Q data slots are simulated.

   This is not part of the paper's system; it is the measurement instrument
   behind the coordination-overhead ablation (experiment E8): comparing its
   progress times against the distributed machine separates "time spent
   transmitting the payload" from "time spent building H~~ and running the
   MIS below the MAC layer". *)

open Sinr_geom
open Sinr_phys
open Sinr_mis

type node_data = {
  mutable payload : Events.payload option;
  mutable member : bool;
}

type t = {
  params : Params.approg;
  sinr : Sinr.t;
  phi : int;
  q : float;
  data_slots : int;
  rng : Rng.t;
  nodes : node_data array;
  rcvd : Rcv_once.t;
  mutable pos : int;
  mutable epoch : int;
  mutable pending_rcv : Approx_progress.rcv_event list;
}

let epoch_slots t = t.phi * t.data_slots

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  Array.iter (fun nd -> nd.member <- nd.payload <> None) t.nodes

(* Sparsify: S_{phi+1} = greedy MIS over H^mu_p[S_phi] with fresh random
   priorities (the oracle counterpart of the temporary-label election). *)
let sparsify t =
  let members = ref [] in
  Array.iteri (fun v nd -> if nd.member then members := v :: !members) t.nodes;
  match !members with
  | [] | [ _ ] -> ()
  | set ->
    let est =
      Reliability.estimate ~trials:120 t.sinr (Rng.split t.rng ~key:t.pos)
        ~set ~p:t.params.Params.p ~mu:t.params.Params.mu
    in
    let n = Array.length t.nodes in
    let priority = Array.make n 0 in
    List.iter (fun v -> priority.(v) <- Rng.int t.rng 1_000_000) set;
    let keep =
      Greedy_mis.compute ~priority (Reliability.graph est) ~universe:set
    in
    Array.iter (fun nd -> nd.member <- false) t.nodes;
    List.iter (fun v -> t.nodes.(v).member <- true) keep

let create params sinr ~rng =
  let params = Params.validate_approg params in
  let config = Sinr.config sinr in
  let lambda = (Induced.local_params config (Sinr.soa sinr)).Induced.lambda in
  let sched = Params.schedule config ~lambda params in
  let t =
    { params;
      sinr;
      phi = sched.Params.phi;
      q = sched.Params.q;
      data_slots = sched.Params.data_slots;
      rng;
      nodes =
        Array.init (Sinr.n sinr) (fun _ -> { payload = None; member = false });
      rcvd = Rcv_once.create (Sinr.n sinr);
      pos = 0;
      epoch = -1;
      pending_rcv = [] }
  in
  begin_epoch t;
  t

let epoch_index t = t.epoch
let member t ~node = t.nodes.(node).member

let start t ~node payload = t.nodes.(node).payload <- Some payload
let stop t ~node = t.nodes.(node).payload <- None

let decide t ~node =
  let nd = t.nodes.(node) in
  match nd.payload with
  | Some payload when nd.member ->
    if Rng.bernoulli t.rng (t.params.Params.p /. t.q) then
      Some (Events.Data payload)
    else None
  | Some _ | None -> None

let on_receive t ~receiver ~sender wire =
  match wire with
  | Events.Data payload | Events.Decay payload ->
    if Rcv_once.admit t.rcvd ~node:receiver payload then
      t.pending_rcv <-
        { Approx_progress.node = receiver; payload; from = sender }
        :: t.pending_rcv
  | Events.Probe | Events.Neighbor_list _ | Events.Mis_round _ -> ()

let end_slot t =
  t.pos <- t.pos + 1;
  if t.pos mod t.data_slots = 0 then
    if t.pos >= epoch_slots t then begin
      t.pos <- 0;
      begin_epoch t
    end
    else sparsify t;
  let out = List.rev t.pending_rcv in
  t.pending_rcv <- [];
  out
