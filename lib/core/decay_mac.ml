(* A Decay-based absMAC — the "basic implementation" style of Khabbazian
   et al. [37] (paper Section 3: "Basic implementations of a probabilistic
   absMAC were provided by [37] using Decay"), transplanted to the SINR
   model.

   Every node with an ongoing broadcast runs the Decay probability sweep
   for a fixed slot budget, then acks.  rcv outputs fire on payload
   receptions, deduplicated per (node, message) like the combined MAC.

   This implementation exists as a comparison point: Theorem 8.1 predicts
   that no Decay-style strategy can give fast approximate progress, and
   experiment E9 measures exactly that against Algorithm 11.1.  It
   implements {!Absmac_intf.S}. *)

open Sinr_phys
open Sinr_engine

type t = {
  engine : Events.wire Engine.t;
  decay : Decay.t;
  ack_budget : int; (* slots of Decay per broadcast before the ack *)
  bounds : Absmac_intf.bounds;
  mutable handlers : Absmac_intf.handlers;
  seq : int array;
  ongoing : Events.payload option array;
  bcast_slot : int array;
  emitted : (int * (int * int), unit) Hashtbl.t;
  trace : Trace.t option;
}

(* Budget shaped like [37]'s Decay-based acknowledgment: contention bound
   times a log(contention/eps) factor. *)
let budget_for ~n_tilde ~eps_ack ~scale =
  max 32
    (int_of_float
       (Float.ceil
          (scale *. float_of_int n_tilde
           *. Float.log2 (Float.max 2. (float_of_int n_tilde /. eps_ack)))))

let create ?(eps_ack = 0.1) ?(budget_scale = 0.5) ?trace sinr ~rng =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let lambda = (Induced.local_params config (Sinr.soa sinr)).Induced.lambda in
  let n_tilde = Params.contention_default ~lambda in
  let ack_budget = budget_for ~n_tilde ~eps_ack ~scale:budget_scale in
  let bounds =
    { Absmac_intf.f_ack = ack_budget;
      f_prog = ack_budget;
      (* Theorem 8.1: Decay cannot beat Delta-order approximate progress;
         the honest advertised bound is the ack budget itself. *)
      f_approg = ack_budget;
      eps_ack;
      eps_prog = eps_ack;
      eps_approg = eps_ack }
  in
  { engine = Engine.create sinr;
    decay = Decay.create ~n_tilde ~n ~rng;
    ack_budget;
    bounds;
    handlers = Absmac_intf.null_handlers;
    seq = Array.make n 0;
    ongoing = Array.make n None;
    bcast_slot = Array.make n 0;
    emitted = Hashtbl.create 64;
    trace }

let n t = Engine.n t.engine
let now t = Engine.slot t.engine
let bounds t = t.bounds
let set_handlers t h = t.handlers <- h
let busy t ~node = t.ongoing.(node) <> None
let engine t = t.engine

let bcast t ~node ~data =
  if busy t ~node then
    invalid_arg "Decay_mac.bcast: node already has an ongoing broadcast";
  let payload = { Events.origin = node; seq = t.seq.(node); data } in
  t.seq.(node) <- t.seq.(node) + 1;
  t.ongoing.(node) <- Some payload;
  t.bcast_slot.(node) <- now t;
  Engine.wake t.engine node;
  Decay.start t.decay ~node ~slot:(now t) payload;
  Trace.emit t.trace ~slot:(now t)
    (Trace.Bcast { node; msg = payload.Events.seq });
  payload

let abort t ~node =
  match t.ongoing.(node) with
  | None -> ()
  | Some payload ->
    t.ongoing.(node) <- None;
    Decay.stop t.decay ~node;
    Trace.emit t.trace ~slot:(now t)
      (Trace.Abort { node; msg = payload.Events.seq })

let emit_rcv t ~node ~payload ~from =
  let id = (node, Events.payload_id payload) in
  if payload.Events.origin <> node && not (Hashtbl.mem t.emitted id) then begin
    Hashtbl.add t.emitted id ();
    Trace.emit t.trace ~slot:(now t)
      (Trace.Rcv { node; msg = payload.Events.seq; from });
    t.handlers.Absmac_intf.on_rcv ~node ~payload
  end

let step t =
  let slot = Engine.slot t.engine in
  let deliveries =
    Engine.step t.engine ~decide:(fun v ->
        match Decay.decide t.decay ~node:v ~slot with
        | Some w -> Engine.Transmit w
        | None -> Engine.Listen)
  in
  List.iter
    (fun d ->
      match d.Engine.message with
      | Events.Decay payload | Events.Data payload ->
        emit_rcv t ~node:d.Engine.receiver ~payload ~from:d.Engine.sender
      | Events.Probe | Events.Neighbor_list _ | Events.Mis_round _ -> ())
    deliveries;
  Array.iteri
    (fun node slot0 ->
      match t.ongoing.(node) with
      | None -> ()
      | Some payload ->
        if now t - slot0 >= t.ack_budget then begin
          t.ongoing.(node) <- None;
          Decay.stop t.decay ~node;
          Trace.emit t.trace ~slot:(now t)
            (Trace.Ack { node; msg = payload.Events.seq });
          t.handlers.Absmac_intf.on_ack ~node ~payload
        end)
    t.bcast_slot
