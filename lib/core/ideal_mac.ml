(* Graph-based reference absMAC.

   Delivers exactly the probabilistic absMAC specification over an explicit
   communication graph, with a pluggable scheduler choosing event times
   within the configured bounds:

   - [Random]      rcv times uniform in [1, f_prog] for the first reception
                   and in [1, f_ack] overall; ack at a uniform time after
                   all rcvs;
   - [Adversarial] every rcv as late as the progress bound permits and the
                   ack exactly at f_ack — the worst case the spec allows.

   Used to (a) test protocols above the MAC layer independently of the SINR
   machinery, and (b) cross-check the spec predicates themselves.  The
   scheduler may also be configured to *violate* progress with probability
   eps_prog, which the spec-conformance tests exploit. *)

open Sinr_geom
open Sinr_graph
open Sinr_engine

type policy =
  | Random
  | Adversarial
  | Violating of float
      (* with this probability per broadcast, drop one neighbor's rcv and
         push another past f_prog: a spec-breaking scheduler used to
         negative-test Spec_check *)

type pending = {
  payload : Events.payload;
  mutable rcv_at : (int * int) list; (* (slot, neighbor), sorted *)
  mutable ack_at : int;
  mutable aborted : bool;
}

type t = {
  graph : Graph.t;
  bounds : Absmac_intf.bounds;
  policy : policy;
  rng : Rng.t;
  trace : Trace.t option;
  mutable handlers : Absmac_intf.handlers;
  mutable now : int;
  mutable seq : int array;
  active : pending option array; (* per node *)
}

let create ?(policy = Random) ?trace graph ~bounds ~rng =
  if bounds.Absmac_intf.f_prog < 1 || bounds.Absmac_intf.f_ack < bounds.f_prog
  then invalid_arg "Ideal_mac.create: need 1 <= f_prog <= f_ack";
  { graph;
    bounds;
    policy;
    rng;
    trace;
    handlers = Absmac_intf.null_handlers;
    now = 0;
    seq = Array.make (Graph.n graph) 0;
    active = Array.make (Graph.n graph) None }

let n t = Graph.n t.graph
let now t = t.now
let bounds t = t.bounds
let set_handlers t h = t.handlers <- h
let busy t ~node = t.active.(node) <> None
let graph t = t.graph

(* Scheduling note.  The progress bound is per *listener*: whenever a
   neighbor of v has been broadcasting for f_prog time, v must have had a
   rcv inside that window.  Scheduling every rcv within f_prog of its bcast
   is a conservative schedule that satisfies the bound for any overlap
   pattern of broadcasts (the spec would also allow a specific message to
   arrive as late as f_ack when other active messages cover v's windows,
   but a reference implementation may be stronger than its spec).  The
   acknowledgment may still wait until f_ack. *)
let schedule t node payload =
  let nbrs = Array.to_list (Graph.neighbors t.graph node) in
  let f_prog = t.bounds.Absmac_intf.f_prog
  and f_ack = t.bounds.Absmac_intf.f_ack in
  let rcv_times =
    match t.policy with
    | Adversarial ->
      (* Latest legal conservative schedule: every rcv exactly at f_prog. *)
      List.map (fun u -> (t.now + f_prog, u)) nbrs
    | Random ->
      List.map (fun u -> (t.now + 1 + Rng.int t.rng f_prog, u)) nbrs
    | Violating p ->
      if Rng.bernoulli t.rng p then
        (* Break the spec: starve the first neighbor entirely and deliver
           the second only after the progress bound. *)
        (match nbrs with
         | [] -> []
         | [ u ] -> [ (t.now + f_ack + f_prog + 1, u) ]
         | u1 :: u2 :: rest ->
           ignore u1;
           (t.now + f_ack + f_prog + 1, u2)
           :: List.map (fun u -> (t.now + f_prog, u)) rest)
      else List.map (fun u -> (t.now + f_prog, u)) nbrs
  in
  let last_rcv =
    List.fold_left (fun acc (s, _) -> max acc s) t.now rcv_times
  in
  let ack_at =
    match t.policy with
    | Adversarial -> t.now + f_ack
    | Violating _ -> t.now + f_ack
    | Random ->
      let lo = max (last_rcv + 1) (t.now + 1) in
      min (t.now + f_ack) (lo + Rng.int t.rng (max 1 (t.now + f_ack - lo + 1)))
  in
  { payload;
    rcv_at = List.sort compare rcv_times;
    ack_at;
    aborted = false }

let bcast t ~node ~data =
  if busy t ~node then
    invalid_arg "Ideal_mac.bcast: node already has an ongoing broadcast";
  let payload =
    { Events.origin = node; seq = t.seq.(node); data }
  in
  t.seq.(node) <- t.seq.(node) + 1;
  t.active.(node) <- Some (schedule t node payload);
  Trace.emit t.trace ~slot:t.now
    (Trace.Bcast { node; msg = payload.Events.seq });
  payload

let abort t ~node =
  match t.active.(node) with
  | None -> ()
  | Some p ->
    p.aborted <- true;
    t.active.(node) <- None;
    Trace.emit t.trace ~slot:t.now
      (Trace.Abort { node; msg = p.payload.Events.seq })

let step t =
  t.now <- t.now + 1;
  Array.iteri
    (fun node slot ->
      match slot with
      | None -> ()
      | Some p ->
        let due, later = List.partition (fun (s, _) -> s <= t.now) p.rcv_at in
        p.rcv_at <- later;
        List.iter
          (fun (_, u) ->
            Trace.emit t.trace ~slot:t.now
              (Trace.Rcv { node = u; msg = p.payload.Events.seq; from = node });
            t.handlers.Absmac_intf.on_rcv ~node:u ~payload:p.payload)
          due;
        if p.rcv_at = [] && p.ack_at <= t.now then begin
          t.active.(node) <- None;
          Trace.emit t.trace ~slot:t.now
            (Trace.Ack { node; msg = p.payload.Events.seq });
          t.handlers.Absmac_intf.on_ack ~node ~payload:p.payload
        end)
    t.active
