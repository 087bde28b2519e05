(* Algorithm 9.1 — the approximate-progress half of the absMAC
   implementation (paper Sections 9 and 10).

   Time is organized in *epochs*; each epoch runs Phi = Theta(log Lambda)
   *phases*; each phase, over a shrinking sender set
   S_1 ⊇ S_2 ⊇ ... ⊇ S_Phi, performs three stages:

     1. estimate the reliability graph H~~^mu_p[S_phi]  (2T slots):
        T slots of id probes transmitted with probability p, then T slots
        exchanging potential-neighbor lists; a mutual (potential, listed)
        pair becomes an H~~ edge;
     2. sparsify: compute S_{phi+1} as the dominator set of the modified
        Schneider–Wattenhofer MIS with fresh non-unique random labels, every
        CONGEST round simulated by T probability-p slots; a node that fails
        to hear all of its H~~ neighbors during a round drops out of the
        epoch (the paper's unsuccessful-communication rule);
     3. transmit the bcast-message itself for data_slots slots with
        probability p / Q, Q = Theta(log^alpha Lambda).

   Intuition (Section 9.1): each MIS round roughly doubles the minimum
   distance between remaining senders (Lemma 10.15), so within log Lambda
   phases every listener with a broadcasting G_{1-2eps}-neighbor sees some
   phase whose sender set is locally sparse enough for the p/Q data
   transmissions to reach it from a G_{1-eps}-neighbor — that is exactly
   the approximate-progress event of Definition 7.1.

   Epoch synchronization uses the shared slot counter (nodes joining wait
   for the next epoch boundary, the paper's Section 9.3 assumption); wakeup
   remains conditional.  The machine consumes one slot of behaviour at a
   time (decide / on_receive / end_slot) so that Algorithm 11.1 can
   interleave it with the acknowledgment algorithm on odd slots. *)

open Sinr_geom

open Sinr_mis
open Sinr_obs

(* Telemetry: the epoch machinery Theorem 9.1 charges slots to. *)
let m_epochs = Metrics.counter "approg.epochs"
let m_phases = Metrics.counter "approg.phases"
let m_mis_rounds = Metrics.counter "approg.mis_rounds"
let m_drops = Metrics.counter "approg.drops"
let m_probe_tx = Metrics.counter "approg.probe_tx"
let m_list_tx = Metrics.counter "approg.list_tx"
let m_mis_tx = Metrics.counter "approg.mis_tx"
let m_data_tx = Metrics.counter "approg.data_tx"
let m_data_rcv = Metrics.counter "approg.data_rcv"
let m_h_edges = Metrics.histogram "approg.h_edges"
let m_mis_winners = Metrics.histogram "approg.mis_winners"
let m_phase_members = Metrics.histogram "approg.phase_members"

type stage =
  | Probe_stage of int                  (* slot within [0, T) *)
  | List_stage of int                   (* slot within [0, T) *)
  | Mis_stage of { round : int; sub : int } (* CONGEST round, sub in [0, T) *)
  | Data_stage of int                   (* slot within [0, data_slots) *)

(* Bit-per-node membership column (the engine's flat layout): [decide]
   and [on_receive] test it per node per slot, so it lives as a packed
   bitmap on [t] rather than as record fields scattered across the heap. *)
module Bits = Sinr_engine.State.Bits
module Node_set = Sinr_engine.Node_set

(* Cold per-node phase tables; the hot scalar state (payload, membership)
   lives in flat columns on [t].  Only phase participants ever write
   them, so they are allocated on a node's first participation and are
   empty for every non-participant. *)
type node_data = {
  counts : (int, int) Hashtbl.t;
  mutable potential : int list;
  listed_by : (int, unit) Hashtbl.t; (* senders whose list names us *)
  mutable h_neighbors : int list;
  mis_heard : (int, Sw_mis.msg) Hashtbl.t;
}

type rcv_event = { node : int; payload : Events.payload; from : int }

type t = {
  params : Params.approg;
  sched : Params.schedule;
  n : int;
  rng : Rng.t;
  nodes : node_data array;     (* [unused] until the node first participates *)
  unused : node_data;
  payload : Events.payload option array; (* ongoing broadcast message m *)
  holders : Node_set.t;        (* nodes with [payload <> None] *)
  member : Bits.t;             (* in S_phi and still active this epoch *)
  participants : Node_set.t;
      (* was in S_phi at phase start (beacons); a superset of [member],
         and the only nodes whose [decide] can transmit *)
  rcvd : Rcv_once.t; (* the rcv outputs so far, one seq per origin *)
  mutable mis : Sw_mis.t option;
  labels : int array;
      (* the phase's temporary labels, redrawn in place for the
         participants each phase *)
  mutable pos : int;        (* slot within the epoch, [0, epoch_slots) *)
  mutable phase : int;      (* [pos] decoded, once per slot *)
  mutable stage : stage;
  mutable epoch : int;
  mutable pending_rcv : rcv_event list;
  (* diagnostics *)
  mutable last_h_edges : (int * int) list option;
      (* the latest H~~ estimate's edges; [last_h_graph] builds the graph
         on demand, so a phase allocates O(edges), not O(n) *)
  mutable drops_total : int;
  (* causal tracing: the epoch > phase > stage span stack currently open,
     rolled forward by [trace_slot] as the machine advances.  [clock]
     supplies engine slots (Combined_mac installs Engine.slot); the
     default counts this machine's own slots so standalone runs still get
     a monotone axis. *)
  mutable clock : unit -> int;
  mutable epoch_span : Span.id;
  mutable phase_span : Span.id;
  mutable stage_span : Span.id;
  mutable span_phase : int;
  mutable span_stage : int;
}

let fresh_node () =
  { counts = Hashtbl.create 8;
    potential = [];
    listed_by = Hashtbl.create 8;
    h_neighbors = [];
    mis_heard = Hashtbl.create 8 }

let reset_phase_tables nd =
  Hashtbl.reset nd.counts;
  nd.potential <- [];
  Hashtbl.reset nd.listed_by;
  nd.h_neighbors <- [];
  Hashtbl.reset nd.mis_heard

(* Close the open span stack, innermost first (stage, then phase, then —
   when [epoch_too] — the epoch).  Integer compares when nothing is open. *)
let close_spans t ~epoch_too =
  let slot = t.clock () in
  if t.stage_span <> Span.none then begin
    Span.finish t.stage_span ~slot;
    t.stage_span <- Span.none
  end;
  if t.phase_span <> Span.none then begin
    Span.finish t.phase_span ~slot;
    t.phase_span <- Span.none
  end;
  if epoch_too && t.epoch_span <> Span.none then begin
    Span.finish t.epoch_span ~slot;
    t.epoch_span <- Span.none
  end

(* S_1 of the new epoch is every node with an ongoing broadcast.  Phase
   state lives only on participants, so only the outgoing and incoming
   participants are touched. *)
let begin_epoch t =
  close_spans t ~epoch_too:true;
  t.epoch <- t.epoch + 1;
  Metrics.incr m_epochs;
  Node_set.iter t.participants (fun v ->
      Bits.set t.member v false;
      reset_phase_tables t.nodes.(v));
  Node_set.clear t.participants;
  Node_set.iter t.holders (fun v ->
      Bits.set t.member v true;
      Node_set.add t.participants v;
      if t.nodes.(v) == t.unused then t.nodes.(v) <- fresh_node ());
  t.mis <- None

(* Decode the position within the epoch into (phase, stage). *)
let stage_of (s : Params.schedule) pos =
  let phase = pos / s.phase_slots in
  let o = pos mod s.phase_slots in
  let st =
    if o < s.t then Probe_stage o
    else if o < 2 * s.t then List_stage (o - (2 * s.t) + s.t)
    else begin
      let o' = o - (2 * s.t) in
      if o' < s.mis_rounds * s.t then
        Mis_stage { round = o' / s.t; sub = o' mod s.t }
      else Data_stage (o' - (s.mis_rounds * s.t))
    end
  in
  (phase, st)

let set_pos t pos =
  let phase, st = stage_of t.sched pos in
  t.pos <- pos;
  t.phase <- phase;
  t.stage <- st

let create params config ~lambda ~n ~rng =
  let params = Params.validate_approg params in
  let sched = Params.schedule config ~lambda params in
  let unused = fresh_node () in
  let phase, stage = stage_of sched 0 in
  let t =
    { params;
      sched;
      n;
      rng;
      nodes = Array.make n unused;
      unused;
      payload = Array.make n None;
      holders = Node_set.create n;
      member = Bits.create n;
      participants = Node_set.create n;
      rcvd = Rcv_once.create n;
      mis = None;
      labels = Array.make n 0;
      pos = 0;
      phase;
      stage;
      epoch = -1;
      pending_rcv = [];
      last_h_edges = None;
      drops_total = 0;
      clock = (fun () -> 0);
      epoch_span = Span.none;
      phase_span = Span.none;
      stage_span = Span.none;
      span_phase = -1;
      span_stage = -1 }
  in
  t.clock <- (fun () -> (max 0 t.epoch * t.sched.Params.epoch_slots) + t.pos);
  begin_epoch t;
  t

let schedule t = t.sched
let pos t = t.pos
let epoch_index t = t.epoch
let member t ~node = Bits.get t.member node
let has_payload t ~node = t.payload.(node) <> None
let drops_total t = t.drops_total
let last_h_graph t =
  Option.map (Sinr_graph.Graph.of_edges ~n:t.n) t.last_h_edges

let start t ~node payload =
  t.payload.(node) <- Some payload;
  Node_set.add t.holders node

let stop t ~node =
  t.payload.(node) <- None;
  Node_set.remove t.holders node

let contenders t = t.participants

let set_clock t f = t.clock <- f

let current_phase t = t.phase

(* Every branch that can transmit (and every RNG draw) is guarded by
   [member] or participation, so for any other node this is [None] with
   no side effect — the contract behind [contenders]. *)
let decide t ~node =
  match t.stage with
  | Probe_stage _ ->
    if Bits.get t.member node && Rng.bernoulli t.rng t.params.p then begin
      Metrics.incr m_probe_tx;
      Some Events.Probe
    end
    else None
  | List_stage _ ->
    if Bits.get t.member node && Rng.bernoulli t.rng t.params.p then begin
      Metrics.incr m_list_tx;
      Some (Events.Neighbor_list t.nodes.(node).potential)
    end
    else None
  | Mis_stage { round; sub = _ } ->
    (* Dropped phase participants keep beaconing their status so that
       neighbors can distinguish protocol silence from loss (see Sw_mis). *)
    if Node_set.mem t.participants node && Rng.bernoulli t.rng t.params.p
    then
      match t.mis with
      | None -> None
      | Some mis ->
        (match Sw_mis.outgoing mis node with
         | Some msg ->
           Metrics.incr m_mis_tx;
           Some (Events.Mis_round { round; msg })
         | None -> None)
    else None
  | Data_stage _ ->
    (match t.payload.(node) with
     | Some payload when Bits.get t.member node ->
       if Rng.bernoulli t.rng (t.params.p /. t.sched.q) then begin
         Metrics.incr m_data_tx;
         Some (Events.Data payload)
       end
       else None
     | Some _ | None -> None)

(* A rcv(m)_i output is emitted at most once per (node, message): protocols
   above the layer ([37]'s BSMB/BMMB) deduplicate anyway, and experiments
   that need raw reception times watch engine deliveries directly.  What
   was output outlives the broadcast ([stop] must not forget it: a
   protocol such as Dgkn_broadcast relays an origin's payload from other
   senders after the origin has acked); {!Rcv_once} stays bounded by
   keeping one seq per origin. *)
let emit_rcv t ~node ~payload ~from =
  if Rcv_once.admit t.rcvd ~node payload then begin
    Metrics.incr m_data_rcv;
    t.pending_rcv <- { node; payload; from } :: t.pending_rcv
  end

let on_receive t ~receiver ~sender wire =
  match wire, t.stage with
  | Events.Probe, Probe_stage _ ->
    if Bits.get t.member receiver then begin
      let nd = t.nodes.(receiver) in
      let c = Option.value (Hashtbl.find_opt nd.counts sender) ~default:0 in
      Hashtbl.replace nd.counts sender (c + 1)
    end
  | Events.Neighbor_list ids, List_stage _ ->
    if Bits.get t.member receiver && List.mem receiver ids then
      Hashtbl.replace t.nodes.(receiver).listed_by sender ()
  | Events.Mis_round { round; msg }, Mis_stage { round = r; sub = _ } ->
    if Node_set.mem t.participants receiver && round = r then
      Hashtbl.replace t.nodes.(receiver).mis_heard sender msg
  | Events.Data payload, _ -> emit_rcv t ~node:receiver ~payload ~from:sender
  | Events.Decay payload, _ -> emit_rcv t ~node:receiver ~payload ~from:sender
  | (Events.Probe | Events.Neighbor_list _ | Events.Mis_round _), _ ->
    (* Stale or out-of-stage coordination traffic is ignored. *)
    ()

(* ------------------------------------------------------------------ *)
(* Stage boundaries                                                     *)
(* ------------------------------------------------------------------ *)

(* Stage boundaries walk the participants (ascending, as a full node
   scan would): every member is one, and nobody else holds phase state. *)

let finish_probe_stage t =
  Node_set.iter t.participants (fun v ->
      if Bits.get t.member v then begin
        let nd = t.nodes.(v) in
        let acc = ref [] in
        Hashtbl.iter
          (fun sender c ->
            if c >= t.sched.potential_threshold then acc := sender :: !acc)
          nd.counts;
        nd.potential <- List.sort Int.compare !acc
      end)

let finish_list_stage t =
  (* u's H~~ neighbors: potential neighbors v whose own list named u. *)
  let members = ref [] in
  Node_set.iter t.participants (fun v ->
      if Bits.get t.member v then begin
        let nd = t.nodes.(v) in
        nd.h_neighbors <-
          List.filter (fun u -> Hashtbl.mem nd.listed_by u) nd.potential;
        members := v :: !members
      end);
  (* Fresh temporary labels and a fresh MIS machine for this phase, both
     written or sized for the members only. *)
  Labels.draw_into t.rng t.labels ~participants:!members
    ~bits:t.sched.label_bits;
  t.mis <-
    Some
      (Sw_mis.create ~n:t.n ~participants:!members ~labels:t.labels
         ~label_bits:t.sched.label_bits ~stages:t.params.mis_stages);
  (* Diagnostic snapshot of the (asymmetric) estimate, symmetrized. *)
  let edges = ref [] in
  Node_set.iter t.participants (fun v ->
      if Bits.get t.member v then
        List.iter (fun u -> if u > v then edges := (v, u) :: !edges)
          t.nodes.(v).h_neighbors);
  Metrics.observe_int m_h_edges (List.length !edges);
  Metrics.observe_int m_phase_members (List.length !members);
  t.last_h_edges <- Some !edges

let finish_mis_round t =
  match t.mis with
  | None -> ()
  | Some mis ->
    (* Completeness check: a phase participant that missed any of its H~~
       neighbors this round has had unsuccessful communication and leaves
       the epoch; otherwise its neighbors' messages are delivered. *)
    Node_set.iter t.participants (fun v ->
        let nd = t.nodes.(v) in
        if Bits.get t.member v then begin
          let missing =
            List.exists
              (fun u -> not (Hashtbl.mem nd.mis_heard u))
              nd.h_neighbors
          in
          if missing then begin
            Bits.set t.member v false;
            t.drops_total <- t.drops_total + 1;
            Metrics.incr m_drops;
            if t.phase_span <> Span.none then
              Span.annotate t.phase_span ~slot:(t.clock ())
                (Printf.sprintf "drop node=%d" v);
            Sw_mis.drop mis v
          end
          else
            List.iter
              (fun u ->
                match Hashtbl.find_opt nd.mis_heard u with
                | Some msg -> Sw_mis.deliver mis ~node:v ~payload:msg
                | None -> assert false)
              nd.h_neighbors
        end;
        Hashtbl.reset nd.mis_heard);
    Metrics.incr m_mis_rounds;
    Sw_mis.advance mis

let finish_phase t =
  Metrics.incr m_phases;
  (match t.mis with
   | None -> ()
   | Some mis ->
     (* S_{phi+1}: the members the MIS made dominators.  Every dominator
        is a participant (the MIS ran over the members). *)
     let winners = ref 0 in
     Node_set.iter t.participants (fun v ->
         let dominator = Sw_mis.status mis v = Sw_mis.Dominator in
         if dominator then incr winners;
         let m = Bits.get t.member v && dominator in
         Bits.set t.member v m;
         if not m then Node_set.remove t.participants v;
         reset_phase_tables t.nodes.(v));
     Metrics.observe_int m_mis_winners !winners);
  t.mis <- None

(* Pull the rcv outputs accumulated since the last drain.  Algorithm 11.1
   also routes its even-slot (acknowledgment algorithm) data receptions
   through [on_receive], and drains after those slots too. *)
let drain_rcv t =
  let out = List.rev t.pending_rcv in
  t.pending_rcv <- [];
  out

let stage_tag = function
  | Probe_stage _ -> 0
  | List_stage _ -> 1
  | Mis_stage _ -> 2
  | Data_stage _ -> 3

let stage_span_name = function
  | 0 -> "approg.probe"
  | 1 -> "approg.list"
  | 2 -> "approg.mis"
  | _ -> "approg.data"

(* Roll the epoch > phase > stage span stack so that it covers the slot
   about to close.  Runs once per Algorithm 9.1 slot, only with tracing
   armed (one load-and-branch otherwise, checked by the caller). *)
let trace_slot t =
  let slot = t.clock () in
  let phase = t.phase and st = t.stage in
  let tag = stage_tag st in
  if t.epoch_span = Span.none then begin
    t.epoch_span <- Span.start ~name:"approg.epoch" ~slot ();
    Span.set_attr t.epoch_span "epoch" (Json.int t.epoch);
    Span.set_attr t.epoch_span "epoch_slots"
      (Json.int t.sched.Params.epoch_slots)
  end;
  if t.phase_span = Span.none || t.span_phase <> phase then begin
    close_spans t ~epoch_too:false;
    t.phase_span <-
      Span.start ~parent:t.epoch_span ~name:"approg.phase" ~slot ();
    Span.set_attr t.phase_span "epoch" (Json.int t.epoch);
    Span.set_attr t.phase_span "phase" (Json.int phase);
    t.span_phase <- phase
  end;
  if t.stage_span = Span.none || t.span_stage <> tag then begin
    if t.stage_span <> Span.none then begin
      Span.finish t.stage_span ~slot;
      t.stage_span <- Span.none
    end;
    t.stage_span <-
      Span.start ~parent:t.phase_span ~name:(stage_span_name tag) ~slot ();
    (match st with
     | Mis_stage { round; _ } ->
       Span.set_attr t.stage_span "first_round" (Json.int round)
     | Probe_stage _ | List_stage _ | Data_stage _ -> ());
    t.span_stage <- tag
  end

(* Advance past the slot that just completed; returns the rcv outputs. *)
let end_slot t =
  let s = t.sched in
  if Span.is_enabled () then trace_slot t;
  (match t.stage with
   | Probe_stage o -> if o = s.t - 1 then finish_probe_stage t
   | List_stage o -> if o = s.t - 1 then finish_list_stage t
   | Mis_stage { round; sub } ->
     if sub = s.t - 1 then begin
       finish_mis_round t;
       if round = s.mis_rounds - 1 && s.data_slots = 0 then finish_phase t
     end
   | Data_stage o -> if o = s.data_slots - 1 then finish_phase t);
  if t.pos + 1 >= s.epoch_slots then begin
    set_pos t 0;
    begin_epoch t
  end
  else set_pos t (t.pos + 1);
  drain_rcv t
