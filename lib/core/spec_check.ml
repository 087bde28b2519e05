(* Execution checking against the absMAC specification.

   The abstract MAC layer spec (paper Section 4.4, plus Definition 12.2's
   "nice" broadcasts and Definition 7.1's approximate progress) is stated
   over executions: sequences of bcast/rcv/ack/abort events with timing
   constraints.  This module replays a recorded {!Trace.t} and scores it
   against the spec, for a given communication graph and bounds:

   - acknowledgment: every un-aborted bcast(m)_i is followed by ack(m)_i
     within f_ack;
   - niceness (Def 12.2): the ack is preceded by rcv(m)_j at every
     G-neighbor j of i;
   - progress (Sec 4.4) / approximate progress (Def 7.1): whenever some
     neighbor of a listener has had an active broadcast for f_prog
     (f_approg) time, the listener has a rcv during that window.

   The ideal MAC must score perfectly with eps = 0; Algorithm 11.1 is
   checked statistically (the spec itself is probabilistic). *)

open Sinr_graph
open Sinr_engine

type broadcast = {
  origin : int;
  msg : int;
  start : int;
  finish : int option;  (* ack or abort slot *)
  acked : bool;
  rcvs : (int * int) list; (* (node, slot), the receptions of this msg *)
}

type report = {
  broadcasts : int;
  acked : int;
  aborted : int;
  unfinished : int;
  ack_delays : int list;
  late_acks : int;     (* acks beyond f_ack *)
  nice : int;          (* acked with rcv at every neighbor first *)
  not_nice : int;
  progress_checks : int;
  progress_violations : int;
}

(* Rebuild per-broadcast histories from the trace.  Payload identity in
   traces is (origin, seq). *)
let broadcasts_of_trace trace =
  let open Trace in
  let tbl : (int * int, broadcast) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun { slot; event } ->
      match event with
      | Bcast { node; msg } ->
        Hashtbl.replace tbl (node, msg)
          { origin = node; msg; start = slot; finish = None; acked = false;
            rcvs = [] }
      | Ack { node; msg } ->
        (match Hashtbl.find_opt tbl (node, msg) with
         | Some b ->
           Hashtbl.replace tbl (node, msg)
             { b with finish = Some slot; acked = true }
         | None -> ())
      | Abort { node; msg } ->
        (match Hashtbl.find_opt tbl (node, msg) with
         | Some b -> Hashtbl.replace tbl (node, msg) { b with finish = Some slot }
         | None -> ())
      | Rcv { node; msg; from } ->
        (match Hashtbl.find_opt tbl (from, msg) with
         | Some b ->
           Hashtbl.replace tbl (from, msg)
             { b with rcvs = (node, slot) :: b.rcvs }
         | None -> ())
      | Wake _ | Crash _ | Recover _ | Deliver _ | Note _ -> ())
    (Trace.events trace);
  Hashtbl.fold (fun _ b acc -> b :: acc) tbl []

(* Progress scoring: for listener [i], merge the active intervals of its
   graph-neighbors' broadcasts; every window of length [f] inside an
   active interval must contain a rcv at [i].  We check only the first
   window of each maximal interval — the binding case, and the literal
   reading of the spec's "interval of length f_prog throughout which u is
   broadcasting". *)
let progress_score ~graph ~f ~horizon broadcasts =
  let n = Graph.n graph in
  let rcv_slots = Array.make n [] in
  List.iter
    (fun (b : broadcast) -> List.iter (fun (node, slot) -> rcv_slots.(node) <- slot :: rcv_slots.(node)) b.rcvs)
    broadcasts;
  let checks = ref 0 and violations = ref 0 in
  for i = 0 to n - 1 do
    let neighbor_intervals =
      List.filter_map
        (fun (b : broadcast) ->
          if Graph.mem_edge graph i b.origin then
            let finish = Option.value b.finish ~default:horizon in
            if finish > b.start then Some (b.start, finish) else None
          else None)
        broadcasts
    in
    (* Merge overlapping intervals. *)
    let merged =
      List.sort compare neighbor_intervals
      |> List.fold_left
           (fun acc (s, e) ->
             match acc with
             | (s0, e0) :: rest when s <= e0 -> (s0, max e0 e) :: rest
             | _ -> (s, e) :: acc)
           []
      |> List.rev
    in
    List.iter
      (fun (s, e) ->
        if e - s >= f then begin
          incr checks;
          let served =
            List.exists (fun t -> t >= s && t <= s + f) rcv_slots.(i)
          in
          if not served then incr violations
        end)
      merged
  done;
  (!checks, !violations)

let check trace ~graph ~f_ack ~f_prog ~horizon =
  let bs = broadcasts_of_trace trace in
  let acked = List.filter (fun (b : broadcast) -> b.acked) bs in
  let aborted =
    List.filter (fun (b : broadcast) -> b.finish <> None && not b.acked) bs
  in
  let unfinished = List.filter (fun (b : broadcast) -> b.finish = None) bs in
  let ack_delays =
    List.map (fun (b : broadcast) -> Option.get b.finish - b.start) acked
  in
  let late_acks = List.length (List.filter (fun d -> d > f_ack) ack_delays) in
  let nice, not_nice =
    List.fold_left
      (fun (nice, not_nice) (b : broadcast) ->
        let ack_slot = Option.get b.finish in
        let nbrs = Graph.neighbors graph b.origin in
        let ok =
          Array.for_all
            (fun j ->
              List.exists (fun (node, slot) -> node = j && slot <= ack_slot)
                b.rcvs)
            nbrs
        in
        if ok then (nice + 1, not_nice) else (nice, not_nice + 1))
      (0, 0) acked
  in
  let progress_checks, progress_violations =
    progress_score ~graph ~f:f_prog ~horizon bs
  in
  { broadcasts = List.length bs;
    acked = List.length acked;
    aborted = List.length aborted;
    unfinished = List.length unfinished;
    ack_delays;
    late_acks;
    nice;
    not_nice;
    progress_checks;
    progress_violations }

(* Hard spec violations (the flight-recorder dump trigger): acks past
   f_ack plus unserved progress windows.  Aborted/unfinished broadcasts
   are not violations — the spec permits aborts and open horizons. *)
let violations r = r.late_acks + r.progress_violations

let pp ppf r =
  Fmt.pf ppf
    "spec: bcasts=%d acked=%d aborted=%d unfinished=%d late_acks=%d \
     nice=%d/%d progress=%d/%d ok"
    r.broadcasts r.acked r.aborted r.unfinished r.late_acks r.nice
    (r.nice + r.not_nice)
    (r.progress_checks - r.progress_violations)
    r.progress_checks
