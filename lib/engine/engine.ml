(* Synchronous-slot SINR network simulator.

   Time advances in discrete slots.  In every slot each awake, non-crashed
   node either transmits one message or listens; receptions are resolved by
   the exact SINR formula (Sinr.resolve).  The engine implements the model
   assumptions of paper Section 4.6:

   - conditional (non-spontaneous) wakeup, Definition 4.4: a node
     participates only after it is woken — by the environment (a bcast
     input, via [wake]) or by decoding its first message (asleep nodes
     listen with their radio on and wake on reception);
   - no collision detection: a listener that decodes nothing learns
     nothing, and cannot distinguish silence from collision;
   - half duplex: transmitters never receive.

   Crash faults (for the consensus experiments) silence a node entirely.

   The engine is polymorphic in the message type so the MAC layer and the
   protocols above it choose their own wire format. *)

open Sinr_phys
open Sinr_obs

(* Telemetry handles (see DESIGN.md "Observability" for the catalogue).
   Updates are single-branch no-ops unless [Metrics.set_enabled true]. *)
let m_slots = Metrics.counter "engine.slots"
let m_tx = Metrics.counter "engine.tx"
let m_listens = Metrics.counter "engine.listens"
let m_deliveries = Metrics.counter "engine.deliveries"
let m_collision_loss = Metrics.counter "engine.collision_loss"
let m_silence = Metrics.counter "engine.silence"
let m_wakeups = Metrics.counter "engine.wakeups"
let m_crashes = Metrics.counter "engine.crashes"
let m_recoveries = Metrics.counter "engine.recoveries"
let m_perturbed_slots = Metrics.counter "engine.perturbed_slots"
let m_slot_tx = Metrics.histogram "engine.slot_tx"
let m_slot_deliveries = Metrics.histogram "engine.slot_deliveries"

type 'm action = Transmit of 'm | Listen

type 'm delivery = {
  receiver : int;
  sender : int;
  message : 'm;
  power : float;
      (* received signal power P/d^alpha of the decoded transmission --
         the physical quantity a radio with signal-strength measurement
         (the paper's Remark 4.6 CCA assumption) can observe *)
}

type 'm t = {
  sinr : Sinr.t;
  mutable slot : int;
  state : 'm State.t;
      (* flat node state: bit-packed awake/crashed maps plus the reusable
         per-slot sender/message buffers (no per-slot O(n) allocation) *)
  wake_on_receive : bool;
  mutable tx_total : int;        (* transmissions across all slots *)
  mutable delivery_total : int;  (* successful decodings across all slots *)
  trace : Trace.t option;
      (* fault events (wake/crash/recover) are recorded here, through
         Trace.emit, so Spec_check and the chaos experiments see the full
         execution *)
  mutable perturb : slot:int -> Sinr.perturb option;
      (* per-slot adversarial channel state (lib/chaos); the default is the
         clean channel *)
  mutable on_crash : int -> unit;
      (* the layer above's crash hook (Combined_mac's ack due-set) *)
}

let create ?(wake_on_receive = true) ?trace sinr =
  let n = Sinr.n sinr in
  { sinr;
    slot = 0;
    state = State.create n;
    wake_on_receive;
    tx_total = 0;
    delivery_total = 0;
    trace;
    perturb = (fun ~slot:_ -> None);
    on_crash = ignore }

let set_perturb t f = t.perturb <- f
let set_on_crash t f = t.on_crash <- f

let sinr t = t.sinr
let n t = Sinr.n t.sinr
let slot t = t.slot
let tx_total t = t.tx_total
let delivery_total t = t.delivery_total

let is_awake t v = State.Bits.get t.state.State.awake v
let is_crashed t v = State.Bits.get t.state.State.crashed v

let wake t v =
  let st = t.state in
  if (not (State.Bits.get st.State.crashed v))
     && not (State.Bits.get st.State.awake v)
  then begin
    Metrics.incr m_wakeups;
    State.Bits.set st.State.awake v true;
    Trace.emit t.trace ~slot:t.slot (Trace.Wake { node = v })
  end

let wake_all t =
  for v = 0 to n t - 1 do
    wake t v
  done

(* Idempotent: a second crash of the same node (double-crash) and a crash
   of a still-asleep node are both no-ops beyond the first effect — exactly
   one Crash trace event and metric tick per node per down-phase. *)
let crash t v =
  let st = t.state in
  if not (State.Bits.get st.State.crashed v) then begin
    Metrics.incr m_crashes;
    State.Bits.set st.State.crashed v true;
    State.Bits.set st.State.awake v false;
    Trace.emit t.trace ~slot:t.slot (Trace.Crash { node = v });
    t.on_crash v
  end

(* Crash–recover adversaries un-crash a node: it rejoins asleep, so the
   conditional-wakeup rule (Definition 4.4) applies to the recovered node
   like to a fresh one — it participates again only after an environment
   wake or a decoded message. *)
let revive t v =
  if State.Bits.get t.state.State.crashed v then begin
    Metrics.incr m_recoveries;
    State.Bits.set t.state.State.crashed v false;
    Trace.emit t.trace ~slot:t.slot (Trace.Recover { node = v })
  end

let awake_nodes t =
  let awake = t.state.State.awake in
  let acc = ref [] in
  for v = n t - 1 downto 0 do
    if State.Bits.get awake v then acc := v :: !acc
  done;
  !acc

(* Run one slot.  [decide v] is consulted only for awake, non-crashed nodes
   — all of them, or only those in [contenders] — and everyone else
   listens.  Returns the deliveries of the slot.  Also calls [on_deliver]
   per delivery if given (before waking the receiver), so callers can
   distinguish "received while asleep".

   Untraced, the slot costs O(consulted nodes + senders + receivers) on
   top of the resolution kernel: the decide walk visits only the
   contenders when a set is given, resolution writes into the reusable
   [decoded] buffers, and delivery visits only the receivers.  The
   listener count and the collision/silence split stay O(n), under
   telemetry only. *)
let step ?on_deliver ?contenders t ~decide =
  let n = n t in
  let st = t.state in
  let awake = st.State.awake and crashed = st.State.crashed in
  (* Reusable slot buffers (State): no per-slot O(n) allocation.  The
     [messages] and [decoded] invariants — all-None / empty between
     slots — are restored under Fun.protect by clearing exactly the
     entries written, so a raising [decide]/[on_deliver] cannot poison
     the next slot. *)
  let messages = st.State.messages and senders = st.State.senders in
  let decoded = st.State.decoded in
  let ntx = ref 0 in
  (* Profiler stage boundaries (profile.<stage>.ns, see lib/obs/profile).
     With the profiler off every [Profile.start] is one atomic load and
     every [Profile.stop] one float compare. *)
  let p_step = Profile.start () in
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to !ntx - 1 do
        messages.(senders.(i)) <- None
      done;
      Sinr.clear_decoded decoded)
  @@ fun () ->
  let p0 = Profile.start () in
  let consider v =
    if State.Bits.get awake v && not (State.Bits.get crashed v) then
      match decide v with
      | Transmit m ->
        messages.(v) <- Some m;
        senders.(!ntx) <- v;
        incr ntx
      | Listen -> ()
  in
  (match contenders with
   | None ->
     for v = 0 to n - 1 do
       consider v
     done
   | Some set -> Node_set.iter set consider);
  Profile.stop Profile.Decide p0;
  let ntx = !ntx in
  (* The seed built its sender list by consing an ascending scan, so
     resolution accumulated interference in DESCENDING node order.
     Reverse the ascending prefix to keep every float — and therefore
     every decoding decision — bit-identical to the record-based path. *)
  for i = 0 to (ntx / 2) - 1 do
    let j = ntx - 1 - i in
    let tmp = senders.(i) in
    senders.(i) <- senders.(j);
    senders.(j) <- tmp
  done;
  t.tx_total <- t.tx_total + ntx;
  let telemetry = Metrics.is_enabled () in
  (* Hoisted once per slot, like [telemetry]: with tracing off the whole
     recorder integration is this one load-and-branch.  Deliveries go to
     the ring only, never to the per-run trace. *)
  let tracing = Span.is_enabled () in
  if telemetry then begin
    let p0 = Profile.start () in
    Metrics.incr m_slots;
    Metrics.add m_tx ntx;
    Metrics.observe_int m_slot_tx ntx;
    (* Awake, non-crashed nodes that chose (or defaulted) to listen. *)
    let listeners = ref 0 in
    for v = 0 to n - 1 do
      if State.Bits.get awake v
         && (not (State.Bits.get crashed v))
         && messages.(v) = None
      then incr listeners
    done;
    Metrics.add m_listens !listeners;
    Profile.stop Profile.Telemetry p0
  end;
  let deliveries = ref [] in
  let ndeliv = ref 0 in
  if ntx > 0 then begin
    (* The adversary's channel state for this slot; [None] keeps the exact
       clean-channel resolution path. *)
    let p0 = Profile.start () in
    let perturb = t.perturb ~slot:t.slot in
    Profile.stop Profile.Perturb p0;
    if telemetry && Option.is_some perturb then Metrics.incr m_perturbed_slots;
    (* Timed by phys.resolve.ns inside the kernel and by the profiler's
       resolve stage here. *)
    let p0 = Profile.start () in
    Sinr.resolve_into ?perturb t.sinr ~senders ~nsenders:ntx decoded;
    Profile.stop Profile.Resolve p0;
    let p0 = Profile.start () in
    (* Receivers come in ascending order, so deliveries keep the order of
       a full node scan. *)
    let sender_of = decoded.Sinr.sender
    and receivers = decoded.Sinr.receivers in
    for i = 0 to decoded.Sinr.count - 1 do
      let u = receivers.(i) in
      if not (State.Bits.get crashed u) then begin
        let v = sender_of.(u) in
        match messages.(v) with
        | Some m ->
          (* Cached-gain lookup: same value as power_between on the two
             positions, without re-deriving the path loss. *)
          let power = Sinr.power t.sinr ~sender:v ~receiver:u in
          let d = { receiver = u; sender = v; message = m; power } in
          if tracing then
            Span.record_event ~slot:t.slot
              (Sim_event.Deliver { node = u; from = v });
          (match on_deliver with Some f -> f d | None -> ());
          deliveries := d :: !deliveries;
          t.delivery_total <- t.delivery_total + 1;
          incr ndeliv;
          if t.wake_on_receive then wake t u
        | None -> assert false
      end
    done;
    if telemetry then begin
      (* An awake listener that decoded nothing: either some sender was
         within range (collision / interference loss) or none was
         (silence).  The node itself cannot tell (no collision
         detection); the observer can, so split the two. *)
      let reached = Sinr.in_range_of_any t.sinr ~senders ~nsenders:ntx in
      for u = 0 to n - 1 do
        if (not (State.Bits.get crashed u))
           && sender_of.(u) < 0
           && State.Bits.get awake u
           && messages.(u) = None
        then
          if reached u then Metrics.incr m_collision_loss
          else Metrics.incr m_silence
      done
    end;
    Profile.stop Profile.Delivery p0
  end;
  if telemetry then begin
    let p0 = Profile.start () in
    Metrics.add m_deliveries !ndeliv;
    Metrics.observe_int m_slot_deliveries !ndeliv;
    Profile.stop Profile.Telemetry p0
  end;
  t.slot <- t.slot + 1;
  let out = List.rev !deliveries in
  Profile.stop Profile.Step p_step;
  out

(* Drive the simulation until [stop] returns true or [max_slots] elapse.
   Returns the number of slots executed.  [on_slot] fires after every slot
   with that slot's index and deliveries, so observers can hook slot
   boundaries without reimplementing the loop. *)
let run ?on_deliver ?on_slot t ~decide ~stop ~max_slots =
  let start = t.slot in
  let rec loop () =
    if stop () || t.slot - start >= max_slots then t.slot - start
    else begin
      let ds = step ?on_deliver t ~decide in
      (match on_slot with Some f -> f ~slot:(t.slot - 1) ds | None -> ());
      loop ()
    end
  in
  loop ()
