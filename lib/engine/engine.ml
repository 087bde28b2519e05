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

(* The slot's sender buffers as a selector sees them.  [eligible] is the
   awake map: awake implies not crashed, since only [wake] sets the awake
   bit (refusing crashed nodes) and [crash] clears it, so it is exactly
   the nodes that may transmit. *)
type 'm selection = {
  eligible : State.Bits.t;
  senders : int array;
  messages : 'm option array;
}

type 'm t = {
  sinr : Sinr.t;
  mutable slot : int;
  state : 'm State.t;
      (* flat node state: bit-packed awake/crashed maps plus the reusable
         per-slot sender/message buffers (no per-slot O(n) allocation) *)
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
  selection : 'm selection;  (* the state's slot buffers, for [select] *)
  mutable ntx : int;
      (* senders of the outcome held in the slot buffers: their [messages]
         entries stay set until the next step clears them *)
  mutable live : int;  (* awake nodes (hence not crashed, see above) *)
  mutable seen : int array;
      (* telemetry scratch, allocated on first use: the collision walk's
         per-node stamp, deduplicating the union of the senders'
         neighbourhoods without a clearing pass *)
  mutable seen_gen : int;
}

let create ?trace sinr =
  let n = Sinr.n sinr in
  let state = State.create n in
  { sinr;
    slot = 0;
    state;
    tx_total = 0;
    delivery_total = 0;
    trace;
    perturb = (fun ~slot:_ -> None);
    on_crash = ignore;
    selection =
      { eligible = state.State.awake;
        senders = state.State.senders;
        messages = state.State.messages };
    ntx = 0;
    live = 0;
    seen = [||];
    seen_gen = 0 }

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
    t.live <- t.live + 1;
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
    if State.Bits.get st.State.awake v then t.live <- t.live - 1;
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

(* How many of the first [k] entries of [ids] are awake now. *)
let count_awake awake ids k =
  let c = ref 0 in
  for i = 0 to k - 1 do
    if State.Bits.get awake (Array.unsafe_get ids i) then incr c
  done;
  !c

(* Telemetry's collision count for a resolved slot: the awake listeners
   that decoded nothing although some sender is in range.  Such a node
   lies in some sender's neighbourhood, so the walk covers the union of
   the [ntx] senders' neighbourhoods, each node stamped once. *)
let collision_losses t ~ntx =
  let st = t.state in
  if Array.length t.seen < n t then t.seen <- Array.make (n t) (-1);
  t.seen_gen <- t.seen_gen + 1;
  let seen = t.seen and gen = t.seen_gen in
  let awake = st.State.awake and messages = st.State.messages in
  let sender_of = st.State.decoded.Sinr.sender in
  let lost = ref 0 in
  let visit u =
    if Array.unsafe_get seen u <> gen then begin
      Array.unsafe_set seen u gen;
      if State.Bits.get awake u && Array.unsafe_get sender_of u < 0 then
        match Array.unsafe_get messages u with None -> incr lost | Some _ -> ()
    end
  in
  for i = 0 to ntx - 1 do
    Sinr.iter_in_range t.sinr st.State.senders.(i) visit
  done;
  !lost

(* Empty the previous slot's outcome: the [messages] entries of its
   senders and the [decoded] buffers, O(senders + receivers). *)
let clear_outcome t =
  let st = t.state in
  let messages = st.State.messages and senders = st.State.senders in
  for i = 0 to t.ntx - 1 do
    Array.unsafe_set messages (Array.unsafe_get senders i) None
  done;
  t.ntx <- 0;
  Sinr.clear_decoded st.State.decoded

let reject_selection messages =
  Array.fill messages 0 (Array.length messages) None;
  invalid_arg "Engine.step_select: senders not ascending and eligible"

(* The one slot body.  [select] writes the slot's transmitters ascending
   into [senders], sets their [messages] entries and returns how many
   there are; the body resolves the slot and leaves its outcome in place
   (see [receiver] below) until the next step clears it.

   Untraced, the slot costs [select] plus O(senders + receivers) on top
   of the resolution kernel: resolution writes into the reusable
   [decoded] buffers, and delivery visits only the receivers.  Telemetry
   adds O(senders + receivers) for the listener and undelivered counts
   (derived from the live-node count) plus the senders' neighbourhoods
   for the collision/silence split. *)
let step_select t ~select =
  clear_outcome t;
  let n = n t in
  let st = t.state in
  let awake = st.State.awake and crashed = st.State.crashed in
  let messages = st.State.messages and senders = st.State.senders in
  let decoded = st.State.decoded in
  (* Profiler stage boundaries (profile.<stage>.ns, see lib/obs/profile).
     With the profiler off every [Profile.start] is one atomic load and
     every [Profile.stop] one float compare. *)
  let p_step = Profile.start () in
  let p0 = Profile.start () in
  (* A raising or contract-breaking [select] leaves an unknown set of
     [messages] entries written: all of them are cleared (O(n), on that
     path only) so the next slot starts empty. *)
  let k =
    match select t.selection with
    | k -> k
    | exception e ->
      Array.fill messages 0 n None;
      raise e
  in
  Profile.stop Profile.Decide p0;
  (* The selection contract, checked in O(senders): strictly ascending
     eligible ids. *)
  if k < 0 || k > n then reject_selection messages;
  for i = 0 to k - 1 do
    let v = senders.(i) in
    if v < 0 || v >= n || (i > 0 && v <= senders.(i - 1))
       || not (State.Bits.get awake v)
    then reject_selection messages
  done;
  let ntx = k in
  t.ntx <- ntx;
  (* The seed built its sender list by consing an ascending scan, so
     resolution accumulated interference in DESCENDING node order.
     Reverse the ascending prefix to keep every float — and therefore
     every decoding decision — bit-identical to the seed's. *)
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
    (* Awake (hence non-crashed) nodes that chose or defaulted to listen:
       the live nodes but the senders [decide] left awake. *)
    Metrics.add m_listens (t.live - count_awake awake senders ntx);
    Profile.stop Profile.Telemetry p0
  end;
  if ntx > 0 then begin
    (* The adversary's channel state for this slot; [None] keeps the exact
       clean-channel resolution path. *)
    let p0 = Profile.start () in
    let perturb = t.perturb ~slot:t.slot in
    Profile.stop Profile.Perturb p0;
    if telemetry && Option.is_some perturb then Metrics.incr m_perturbed_slots;
    (* Timed by the profiler's resolve stage. *)
    let p0 = Profile.start () in
    Sinr.resolve_into ?perturb t.sinr ~senders ~nsenders:ntx decoded;
    Profile.stop Profile.Resolve p0;
    let p0 = Profile.start () in
    (* Receivers come in ascending order.  The physics knows nothing of
       crashes, so a crashed node still decodes there; it receives
       nothing, and is dropped from the outcome here, which keeps the
       remaining receivers ascending.  Every receiver kept is woken
       (conditional wakeup, Definition 4.4). *)
    let sender_of = decoded.Sinr.sender
    and receivers = decoded.Sinr.receivers in
    let kept = ref 0 in
    for i = 0 to decoded.Sinr.count - 1 do
      let u = receivers.(i) in
      if State.Bits.get crashed u then sender_of.(u) <- -1
      else begin
        receivers.(!kept) <- u;
        incr kept;
        if tracing then
          Span.record_event ~slot:t.slot
            (Sim_event.Deliver { node = u; from = sender_of.(u) });
        t.delivery_total <- t.delivery_total + 1;
        wake t u
      end
    done;
    decoded.Sinr.count <- !kept;
    Profile.stop Profile.Delivery p0;
    if telemetry then begin
      (* An awake listener that decoded nothing: either some sender was
         within range (collision / interference loss) or none was
         (silence).  The node itself cannot tell (no collision
         detection); the observer can, so split the two.  The undelivered
         listeners are the live nodes but the awake senders and the awake
         receivers; the collisions among them are counted on the senders'
         neighbourhoods, and the rest is silence.  Telemetry-only work,
         so the profiler books it as telemetry. *)
      let p0 = Profile.start () in
      let undelivered =
        t.live - count_awake awake senders ntx
        - count_awake awake receivers decoded.Sinr.count
      in
      let lost = if undelivered > 0 then collision_losses t ~ntx else 0 in
      Metrics.add m_collision_loss lost;
      Metrics.add m_silence (undelivered - lost);
      Profile.stop Profile.Telemetry p0
    end
  end;
  let ndeliv = decoded.Sinr.count in
  if telemetry then begin
    let p0 = Profile.start () in
    Metrics.add m_deliveries ndeliv;
    Metrics.observe_int m_slot_deliveries ndeliv;
    Profile.stop Profile.Telemetry p0
  end;
  t.slot <- t.slot + 1;
  Profile.stop Profile.Step p_step;
  ndeliv

(* The last slot's outcome, read in place. *)
let receiver t i =
  let d = t.state.State.decoded in
  if i < 0 || i >= d.Sinr.count then invalid_arg "Engine.receiver";
  Array.unsafe_get d.Sinr.receivers i

let sender_of t u = t.state.State.decoded.Sinr.sender.(u)

let message t v =
  match t.state.State.messages.(v) with
  | Some m -> m
  | None -> invalid_arg "Engine.message: not a sender of the last slot"

(* The per-node walk as a selector: [decide v] for each eligible node —
   all of them, or only those in [contenders] — in ascending order. *)
let walk ?contenders t ~decide sel =
  let eligible = sel.eligible in
  let senders = sel.senders and messages = sel.messages in
  let ntx = ref 0 in
  let consider v =
    if State.Bits.get eligible v then
      match decide v with
      | Some _ as m ->
        messages.(v) <- m;
        senders.(!ntx) <- v;
        incr ntx
      | None -> ()
  in
  (match contenders with
   | None ->
     for v = 0 to n t - 1 do
       consider v
     done
   | Some set -> Node_set.iter set consider);
  !ntx
