(* Algorithm B.1 — the Halldorsson–Mitra LocalBroadcast algorithm, restated
   by the paper's Appendix B with local parameters and used by Theorem 5.1
   to implement absMAC acknowledgments.

   Per broadcasting node y the algorithm maintains a transmission
   probability p_y, a spent-probability budget tp_y and a reception counter
   rc_y:

     tp_y <- 0 ; p_y <- 1/(4*N~)
     loop                                (outer: "FallBack" target)
       p_y <- max(1/(128*N~), p_y/32) ; rc_y <- 0
       loop                              (inner: probability ramp)
         p_y <- min(1/16, 2*p_y)
         for j = 1 .. delta*log(N~/eps):
           transmit with probability p_y ; tp_y <- tp_y + p_y
           if tp_y > gamma'*log(N~/eps) then halt
           if a message was received then
             rc_y <- rc_y + 1
             if rc_y > 8*log(2*N~/eps) then FallBack

   N~ is an upper bound on the local contention; Theorem 5.1 instantiates
   N~ = 4*Lambda^2 so that only a (polynomial bound on) Lambda needs to be
   known.  Intuitively the ramp seeks the "right" probability ~1/contention;
   receiving many messages signals that the neighborhood is already at that
   level, so the node backs off (FallBack) instead of escalating.

   The machine exposes one node-slot of behaviour at a time so that
   Algorithm 11.1 can interleave it with Algorithm 9.1 on even/odd slots,
   either per node ([decide]) or as one batched pass over a slot's
   contenders ([select]); both run the same step, [advance]. *)

open Sinr_geom
open Sinr_engine
open Sinr_obs

(* Telemetry: Algorithm B.1's round structure. *)
let m_slots = Metrics.counter "hm.slots"
let m_tx = Metrics.counter "hm.tx"
let m_rcv = Metrics.counter "hm.rcv"
let m_halts = Metrics.counter "hm.halts"
let m_fallbacks = Metrics.counter "hm.fallbacks"
let m_ramps = Metrics.counter "hm.ramps"
let m_broadcast_slots = Metrics.histogram "hm.broadcast_slots"

type node_state = {
  mutable msg : Events.wire option;
      (* [Some (Data m)] for the ongoing broadcast m: built once in [start],
         so a transmission allocates nothing *)
  mutable rc : int;
  mutable j : int;         (* position within the inner for-loop *)
  mutable ramp_pending : bool; (* double p before the next slot *)
  mutable halted : bool;
  mutable slots_run : int; (* HM slots consumed by the current broadcast *)
  mutable fallbacks : int;
}

type t = {
  n_tilde : int;
  inner_len : int;   (* delta * log2(N~/eps) *)
  tp_cap : float;    (* gamma' * log2(N~/eps) *)
  rc_cap : int;      (* fallback_threshold * log2(2*N~/eps) *)
  p_min : float;
  p_start : float;
  p_cap : float;
  nodes : node_state array;
  active : State.Bits.t;
      (* broadcasting and not halted, one bit per node: [on_receive]
         tests it per delivery without touching [nodes] *)
  p : Float.Array.t;
  tp : Float.Array.t;
      (* per-node p_y and tp_y, unboxed: an update neither allocates nor
         passes the write barrier *)
  rng : Rng.t;
  spans : Span.id array;
      (* per-node causal span of the ongoing broadcast (Combined_mac owns
         open/close; this machine only annotates halt/fallback moments) *)
  mutable clock : unit -> int;
      (* engine-slot clock for span annotations; Combined_mac installs the
         real one, the default stamps 0 *)
  mutable ramps : int; (* inner-loop ramps not yet added to hm.ramps *)
}

let fresh_node () =
  { msg = None;
    rc = 0;
    j = 0;
    ramp_pending = false;
    halted = false;
    slots_run = 0;
    fallbacks = 0 }

let create (params : Params.ack) ~lambda ~n ~rng =
  let params = Params.validate_ack params in
  let n_tilde =
    match params.contention_bound with
    | Some b -> max 2 b
    | None -> Params.contention_default ~lambda
  in
  let log_ratio =
    Float.max 1. (Float.log2 (float_of_int n_tilde /. params.eps_ack))
  in
  let log_ratio2 =
    Float.max 1. (Float.log2 (2. *. float_of_int n_tilde /. params.eps_ack))
  in
  { n_tilde;
    inner_len = max 1 (int_of_float (Float.ceil (params.delta_reps *. log_ratio)));
    tp_cap = params.tp_budget *. log_ratio;
    rc_cap =
      max 1 (int_of_float (Float.ceil (params.fallback_threshold *. log_ratio2)));
    p_min = 1. /. (params.p_min_div *. float_of_int n_tilde);
    p_start = 1. /. (params.p_start_div *. float_of_int n_tilde);
    p_cap = params.p_cap;
    nodes = Array.init n (fun _ -> fresh_node ());
    active = State.Bits.create n;
    p = Float.Array.make n 0.;
    tp = Float.Array.make n 0.;
    rng;
    spans = Array.make n Span.none;
    clock = (fun () -> 0);
    ramps = 0 }

let n_tilde t = t.n_tilde

let start t ~node payload =
  let nd = t.nodes.(node) in
  nd.msg <- Some (Events.Data payload);
  State.Bits.set t.active node true;
  (* Lines 1-5 followed by the first pass of line 7: the ramp doubles p on
     entry to each inner loop. *)
  Float.Array.set t.p node (Float.max t.p_min (t.p_start /. 32.));
  Float.Array.set t.tp node 0.;
  nd.rc <- 0;
  nd.j <- 0;
  nd.ramp_pending <- true;
  nd.halted <- false;
  nd.slots_run <- 0;
  nd.fallbacks <- 0

let stop t ~node =
  let nd = t.nodes.(node) in
  nd.msg <- None;
  nd.halted <- false;
  State.Bits.set t.active node false;
  t.spans.(node) <- Span.none

let set_clock t f = t.clock <- f
let set_span t ~node id = t.spans.(node) <- id

let active t ~node = State.Bits.get t.active node

let halted t ~node = t.nodes.(node).halted
let slots_run t ~node = t.nodes.(node).slots_run
let fallbacks t ~node = t.nodes.(node).fallbacks

(* One HM slot of a node that broadcasts and has not halted (lines
   7-16): returns whether it transmits.  The ramp is tallied in
   [t.ramps]; the caller publishes it with the slot and tx counts. *)
let advance t ~node nd =
  if nd.ramp_pending then begin
    (* Line 7: p <- min(1/16, 2p). *)
    Float.Array.set t.p node (Float.min t.p_cap (2. *. Float.Array.get t.p node));
    nd.ramp_pending <- false;
    t.ramps <- t.ramps + 1
  end;
  nd.slots_run <- nd.slots_run + 1;
  let send = Rng.bernoulli_at t.rng t.p node in
  let p = Float.Array.get t.p node in
  (* Line 13: tp accounts for the *probability*, not the outcome. *)
  let tp = Float.Array.get t.tp node +. p in
  Float.Array.set t.tp node tp;
  if tp > t.tp_cap then begin
    (* lines 14-16 *)
    nd.halted <- true;
    State.Bits.set t.active node false;
    Metrics.incr m_halts;
    Metrics.observe_int m_broadcast_slots nd.slots_run;
    if t.spans.(node) <> Span.none then
      Span.annotate t.spans.(node) ~slot:(t.clock ()) "hm.halt"
  end
  else begin
    nd.j <- nd.j + 1;
    if nd.j >= t.inner_len then begin
      (* End of the for-loop: the enclosing inner loop doubles p next. *)
      nd.j <- 0;
      nd.ramp_pending <- true
    end
  end;
  (* The halting slot still carries its transmission if one was drawn. *)
  send

let publish t ~slots ~tx =
  Metrics.add m_slots slots;
  Metrics.add m_tx tx;
  Metrics.add m_ramps t.ramps;
  t.ramps <- 0

(* One HM slot for [node]: returns the transmission decision.  Must be
   called exactly once per HM slot for each active node. *)
let decide t ~node =
  let nd = t.nodes.(node) in
  match nd.msg with
  | Some _ when not nd.halted ->
    let send = advance t ~node nd in
    publish t ~slots:1 ~tx:(Bool.to_int send);
    if send then nd.msg else None
  | Some _ | None -> None

(* [decide] for every eligible contender in ascending order, in one loop:
   the same [advance] calls, hence the same RNG draws, as the per-node
   walk, with no callback per contender and one metrics update per slot.
   A halted contender is added to [due], as the walk's caller does. *)
let select t ~contenders ~due (sel : Events.wire Engine.selection) =
  let ids = Node_set.ascending contenders in
  let eligible = sel.Engine.eligible in
  let senders = sel.Engine.senders and messages = sel.Engine.messages in
  let k = ref 0 and slots = ref 0 in
  for i = 0 to Node_set.cardinal contenders - 1 do
    let v = Array.unsafe_get ids i in
    if State.Bits.get eligible v then begin
      let nd = t.nodes.(v) in
      match nd.msg with
      | None -> ()
      | Some _ as msg ->
        if not nd.halted then begin
          incr slots;
          if advance t ~node:v nd then begin
            messages.(v) <- msg;
            senders.(!k) <- v;
            incr k
          end
        end;
        if nd.halted then Node_set.add due v
    end
  done;
  publish t ~slots:!slots ~tx:!k;
  !k

(* Lines 17-22: a message was received during this HM slot. *)
let on_receive t ~node =
  if State.Bits.get t.active node then begin
    let nd = t.nodes.(node) in
    nd.rc <- nd.rc + 1;
    Metrics.incr m_rcv;
    if nd.rc > t.rc_cap then begin
      (* FallBack to line 4: shrink p, reset rc, restart the inner loop. *)
      Float.Array.set t.p node (Float.max t.p_min (Float.Array.get t.p node /. 32.));
      nd.rc <- 0;
      nd.j <- 0;
      nd.ramp_pending <- true;
      nd.fallbacks <- nd.fallbacks + 1;
      Metrics.incr m_fallbacks;
      if t.spans.(node) <> Span.none then
        Span.annotate t.spans.(node) ~slot:(t.clock ())
          (Printf.sprintf "hm.fallback p=%.3g" (Float.Array.get t.p node))
    end
  end
