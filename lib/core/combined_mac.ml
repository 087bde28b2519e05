(* Algorithm 11.1 — the full absMAC implementation over the SINR simulator
   (paper Theorem 11.1).

   Two sub-algorithms run in parallel by slot interleaving:

     even engine slots : the acknowledgment algorithm of Theorem 5.1
                         (Halldorsson–Mitra Algorithm B.1, {!Hm_ack}),
     odd engine slots  : the approximate-progress Algorithm 9.1
                         ({!Approx_progress}).

   On a bcast(m)_i input the node wakes, hands m to both machines and runs
   for at most f_ack slots; the ack(m)_i output fires when Algorithm B.1
   halts (its probability budget is spent — Lemma B.20 guarantees delivery
   with probability 1 - eps_ack/2 by then) or at the f_ack cap, whichever
   comes first (the paper's "stop after f_ack rounds", proof of
   Theorem 5.1).  An abort(m)_i input silences the payload without an ack;
   the node keeps participating in the current epoch's coordination (the
   paper's abort clause (i)) because phase membership is only re-evaluated
   at epoch boundaries.

   rcv(m)_j outputs fire on data receptions from either half, deduplicated
   per (node, message).  This module implements {!Absmac_intf.S}. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_obs

(* Telemetry: the Algorithm 11.1 even/odd interleaving and absMAC events. *)
let m_slots_even = Metrics.counter "mac.slots_even"
let m_slots_odd = Metrics.counter "mac.slots_odd"
let m_bcasts = Metrics.counter "mac.bcasts"
let m_acks = Metrics.counter "mac.acks"
let m_acks_capped = Metrics.counter "mac.acks_capped"
let m_aborts = Metrics.counter "mac.aborts"
let m_rcvs = Metrics.counter "mac.rcvs"
let m_data_rejected = Metrics.counter "mac.data_rejected"
let m_crash_drops = Metrics.counter "mac.crash_drops"
let m_ack_delay = Metrics.histogram "mac.ack_delay"

type t = {
  engine : Events.wire Engine.t;
  hm : Hm_ack.t;
  approg : Approx_progress.t;
  lambda : float;
  exact_threshold : float option;
      (* Remark 4.6 exact mode: minimum received power (= P/R_{1-eps}^alpha)
         for a data reception to produce a rcv output; [None] = accept all *)
  fack_cap : int; (* engine slots *)
  bounds : Absmac_intf.bounds;
  mutable handlers : Absmac_intf.handlers;
  mutable raw_rcv_hook : (Approx_progress.rcv_event -> unit) option;
  seq : int array;
  ongoing : Events.payload option array;
  ongoing_set : Node_set.t;
      (* the nodes with [ongoing <> None]: the even-slot contenders (B.1
         transmits only with a payload) *)
  due : Node_set.t;
      (* the ack pass's walk: a superset of the ongoing broadcasts that are
         crashed, halted or at their f_ack cap (see [step]) *)
  deadlines : (int * int) Queue.t;
      (* (f_ack cap slot, node) of each broadcast started so far, oldest
         first: the cap is start slot + the fixed [fack_cap], so start
         order is deadline order *)
  bcast_slot : int array;
  last_ack_capped : bool array;
  trace : Trace.t option;
  spans : Span.id array;     (* per-node root span of the ongoing bcast *)
  hm_spans : Span.id array;  (* its hm.bcast child *)
}

let create ?(ack_params = Params.default_ack)
    ?(approg_params = Params.default_approg) ?(exact = false) ?trace sinr
    ~rng =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let lambda = Induced.lambda config (Sinr.points sinr) in
  let strong = Induced.strong config (Sinr.points sinr) in
  let delta = Sinr_graph.Graph.max_degree strong in
  let hm = Hm_ack.create ack_params ~lambda ~n ~rng:(Rng.split rng ~key:1) in
  let approg =
    Approx_progress.create approg_params config ~lambda ~n
      ~rng:(Rng.split rng ~key:2)
  in
  let sched = Approx_progress.schedule approg in
  (* HM runs on even slots only: its slot cap doubles in engine slots. *)
  let fack_cap =
    2
    * Params.f_ack_cap ~delta ~lambda ~eps_ack:ack_params.Params.eps_ack ()
  in
  (* Approximate progress is guaranteed within one full epoch; a broadcast
     may start just after an epoch boundary, so two epochs of odd slots
     bound the wait. *)
  let f_approg = 4 * sched.Params.epoch_slots in
  let bounds =
    { Absmac_intf.f_ack = fack_cap;
      f_prog = fack_cap; (* Theorem 6.1: no better G_{1-eps} progress bound *)
      f_approg;
      eps_ack = ack_params.Params.eps_ack;
      eps_prog = ack_params.Params.eps_ack;
      eps_approg = approg_params.Params.eps_approg }
  in
  let exact_threshold =
    if exact then
      Some
        (config.Config.power /. (Config.strong_range config ** config.Config.alpha))
    else None
  in
  let engine = Engine.create ?trace sinr in
  (* Span annotations from the sub-machines carry engine slots. *)
  Hm_ack.set_clock hm (fun () -> Engine.slot engine);
  Approx_progress.set_clock approg (fun () -> Engine.slot engine);
  let t =
    { engine;
      hm;
      approg;
      lambda;
      exact_threshold;
      fack_cap;
      bounds;
      handlers = Absmac_intf.null_handlers;
      raw_rcv_hook = None;
      seq = Array.make n 0;
      ongoing = Array.make n None;
      ongoing_set = Node_set.create n;
      due = Node_set.create n;
      deadlines = Queue.create ();
      bcast_slot = Array.make n 0;
      last_ack_capped = Array.make n false;
      trace;
      spans = Array.make n Span.none;
      hm_spans = Array.make n Span.none }
  in
  (* A broadcaster that crashes is dropped by the next ack pass. *)
  Engine.set_on_crash engine (fun v ->
      if t.ongoing.(v) <> None then Node_set.add t.due v);
  t

(* Exact local broadcast (Remark 4.6): with signal-strength measurement a
   node can reject data from outside the strong radius, because received
   power is a strictly decreasing function of distance under Eq. 1. *)
let accept_data t ~receiver ~sender =
  match t.exact_threshold with
  | None -> true
  | Some thr ->
    let power = Sinr.power (Engine.sinr t.engine) ~sender ~receiver in
    let ok = power >= thr -. 1e-12 in
    if not ok then Metrics.incr m_data_rejected;
    ok

let n t = Engine.n t.engine
let now t = Engine.slot t.engine
let bounds t = t.bounds
let set_handlers t h = t.handlers <- h
let busy t ~node = t.ongoing.(node) <> None
let engine t = t.engine
let approg t = t.approg
let hm t = t.hm
let lambda t = t.lambda

(* Whether the node's most recent ack was forced by the f_ack cap rather
   than a natural Algorithm B.1 halt. *)
let last_ack_capped t ~node = t.last_ack_capped.(node)

(* Close the node's hm.bcast and mac.bcast spans with a final [outcome]
   attribute ("ack" / "ack_capped" / "abort" / "crash_drop").  Guarded by
   the root id, so this is two array reads and a compare when tracing is
   off (or was off at bcast time). *)
let finish_spans t ~node ~outcome =
  let root = t.spans.(node) in
  if root <> Span.none then begin
    let slot = now t in
    let hm_span = t.hm_spans.(node) in
    if hm_span <> Span.none then begin
      Span.set_attr hm_span "slots_run"
        (Json.int (Hm_ack.slots_run t.hm ~node));
      Span.set_attr hm_span "fallbacks"
        (Json.int (Hm_ack.fallbacks t.hm ~node));
      Span.finish hm_span ~slot
    end;
    Span.set_attr root "outcome" (Json.Str outcome);
    Span.finish root ~slot;
    t.spans.(node) <- Span.none;
    t.hm_spans.(node) <- Span.none
  end

let bcast t ~node ~data =
  if busy t ~node then
    invalid_arg "Combined_mac.bcast: node already has an ongoing broadcast";
  let payload = { Events.origin = node; seq = t.seq.(node); data } in
  t.seq.(node) <- t.seq.(node) + 1;
  t.ongoing.(node) <- Some payload;
  Node_set.add t.ongoing_set node;
  t.bcast_slot.(node) <- now t;
  Queue.add (now t + t.fack_cap, node) t.deadlines;
  if Engine.is_crashed t.engine node || t.fack_cap <= 0 then
    Node_set.add t.due node;
  Metrics.incr m_bcasts;
  Engine.wake t.engine node;
  Hm_ack.start t.hm ~node payload;
  Approx_progress.start t.approg ~node payload;
  Trace.emit t.trace ~slot:(now t)
    (Trace.Bcast { node; msg = payload.Events.seq });
  if Span.is_enabled () then begin
    let slot = now t in
    let root = Span.start ~name:"mac.bcast" ~slot () in
    Span.set_attr root "node" (Json.int node);
    Span.set_attr root "seq" (Json.int payload.Events.seq);
    Span.set_attr root "f_ack" (Json.int t.fack_cap);
    Span.set_attr root "f_approg"
      (Json.int t.bounds.Absmac_intf.f_approg);
    t.spans.(node) <- root;
    let hm_span = Span.start ~parent:root ~name:"hm.bcast" ~slot () in
    t.hm_spans.(node) <- hm_span;
    Hm_ack.set_span t.hm ~node hm_span
  end;
  payload

let abort t ~node =
  match t.ongoing.(node) with
  | None -> ()
  | Some payload ->
    t.ongoing.(node) <- None;
    Node_set.remove t.ongoing_set node;
    finish_spans t ~node ~outcome:"abort";
    Hm_ack.stop t.hm ~node;
    Approx_progress.stop t.approg ~node;
    Metrics.incr m_aborts;
    Trace.emit t.trace ~slot:(now t)
      (Trace.Abort { node; msg = payload.Events.seq })

let set_raw_rcv_hook t f = t.raw_rcv_hook <- Some f

let fire_rcvs t rcvs =
  List.iter
    (fun ({ Approx_progress.node; payload; from } as ev) ->
      Metrics.incr m_rcvs;
      Trace.emit t.trace ~slot:(now t)
        (Trace.Rcv { node; msg = payload.Events.seq; from });
      (* Progress annotation on the originator's span — only while that
         broadcast is still the ongoing one (a rcv can trail an ack). *)
      (if Span.is_enabled () then
         let origin = payload.Events.origin in
         match t.ongoing.(origin) with
         | Some p when p.Events.seq = payload.Events.seq ->
           Span.annotate t.spans.(origin) ~slot:(now t)
             (Printf.sprintf "rcv@%d from=%d" node from)
         | Some _ | None -> ());
      (match t.raw_rcv_hook with Some f -> f ev | None -> ());
      t.handlers.Absmac_intf.on_rcv ~node ~payload)
    rcvs

let finish_ack t ~node payload ~capped =
  t.ongoing.(node) <- None;
  Node_set.remove t.ongoing_set node;
  t.last_ack_capped.(node) <- capped;
  Metrics.incr m_acks;
  if capped then Metrics.incr m_acks_capped;
  Metrics.observe_int m_ack_delay (now t - t.bcast_slot.(node));
  finish_spans t ~node ~outcome:(if capped then "ack_capped" else "ack");
  Hm_ack.stop t.hm ~node;
  Approx_progress.stop t.approg ~node;
  Trace.emit t.trace ~slot:(now t)
    (Trace.Ack { node; msg = payload.Events.seq });
  t.handlers.Absmac_intf.on_ack ~node ~payload

let step t =
  let slot = Engine.slot t.engine in
  let hm_slot = slot mod 2 = 0 in
  Metrics.incr (if hm_slot then m_slots_even else m_slots_odd);
  (* Only nodes that can transmit are consulted: B.1 needs an ongoing
     broadcast, Algorithm 9.1 phase participation.  B.1's contenders are
     stepped in one batched pass, which also adds the ones it halts to
     [due]. *)
  let e = t.engine in
  let ndeliv =
    if hm_slot then
      Engine.step_select e
        ~select:(Hm_ack.select t.hm ~contenders:t.ongoing_set ~due:t.due)
    else
      Engine.step_select e
        ~select:
          (Engine.walk ~contenders:(Approx_progress.contenders t.approg) e
             ~decide:(fun v -> Approx_progress.decide t.approg ~node:v))
  in
  (* The slot's outcome is read in place, in ascending receiver order. *)
  for i = 0 to ndeliv - 1 do
    let u = Engine.receiver e i in
    let v = Engine.sender_of e u in
    let w = Engine.message e v in
    (* Even slots: any decoded message feeds B.1's reception counter
       (lines 17-22), and only data payloads go on to Algorithm 9.1's
       rcv outputs.  Odd slots feed every message to Algorithm 9.1. *)
    if hm_slot then Hm_ack.on_receive t.hm ~node:u;
    match w with
    | Events.Data _ | Events.Decay _ ->
      if accept_data t ~receiver:u ~sender:v then
        Approx_progress.on_receive t.approg ~receiver:u ~sender:v w
    | Events.Probe | Events.Neighbor_list _ | Events.Mis_round _ ->
      if not hm_slot then
        Approx_progress.on_receive t.approg ~receiver:u ~sender:v w
  done;
  fire_rcvs t
    (if hm_slot then Approx_progress.drain_rcv t.approg
     else Approx_progress.end_slot t.approg);
  (* Acknowledgments: B.1 halt or the f_ack cap.  A node that crashed with
     an ongoing broadcast must never ack (the ack cap is a timer, not a
     liveness proof): drop the payload as an abort, which Spec_check then
     counts as aborted rather than as a late-ack violation.

     The pass walks [due], not every ongoing broadcast.  Every broadcast
     the body below acts on is in it: a B.1 halt is added by the even
     slot's [Hm_ack.select], a crash by the engine's crash hook (or by
     [bcast] on a crashed node), and an f_ack cap by the deadline FIFO
     just before the walk.  A node leaves [due] before its body runs, and
     the body re-checks everything, so a stale or repeated entry costs one
     visit and nothing else.  The walk is ascending and sees the
     handlers' updates as a full node scan would: a node an [on_ack]
     crashes (or starts on a crashed node, or at [fack_cap <= 0]) above
     the acking id is handled in this same pass, one below it in the
     next. *)
  while
    (not (Queue.is_empty t.deadlines)) && fst (Queue.peek t.deadlines) <= now t
  do
    Node_set.add t.due (snd (Queue.pop t.deadlines))
  done;
  Node_set.iter t.due (fun node ->
      Node_set.remove t.due node;
      match t.ongoing.(node) with
      | None -> ()
      | Some payload ->
        let slot0 = t.bcast_slot.(node) in
        if Engine.is_crashed t.engine node then begin
          t.ongoing.(node) <- None;
          Node_set.remove t.ongoing_set node;
          finish_spans t ~node ~outcome:"crash_drop";
          Hm_ack.stop t.hm ~node;
          Approx_progress.stop t.approg ~node;
          Metrics.incr m_crash_drops;
          Trace.emit t.trace ~slot:(now t)
            (Trace.Abort { node; msg = payload.Events.seq });
          (* Flight-recorder trigger: a node died with a broadcast in
             flight.  One dump per run (dump_once), containing the just-
             finished crash_drop span and the history around it. *)
          if Recorder.is_enabled () then
            ignore (Recorder.dump_once ~reason:"crash-mid-broadcast" ())
        end
        else
          let halted = Hm_ack.halted t.hm ~node in
          if halted || now t - slot0 >= t.fack_cap then
            finish_ack t ~node payload ~capped:(not halted))
