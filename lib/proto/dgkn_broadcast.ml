(* Global single-message broadcast in the style of Daum, Gilbert, Kuhn and
   Newport [14] — the algorithm the paper's Table 2 improves on.

   DGKN's broadcast is the *global, w.h.p.-parameterized* ancestor of
   Algorithm 9.1: informed nodes run the same epoch machinery (reliability
   graph estimation, MIS sparsification, data transmissions), every node
   that receives the message joins the broadcasting set immediately, and
   all probability guarantees are taken with high probability in n — which
   is what the paper's localized analysis removes.  We therefore realize
   the baseline by running the Approx_progress machine with

     eps_approg = 1/n   (the network-wide union bound; T gains the log n
                         factor that the paper's Theorem 9.1 sheds), and
     relay-on-receive   (raw receptions immediately start the epoch
                         machinery at the receiver).

   This reproduces the O(D log^{alpha+1} Lambda log n) runtime shape of
   [14] that Table 2 compares against. *)

open Sinr_phys
open Sinr_engine
open Sinr_mac

type result = {
  completed : int option; (* slot at which all nodes were informed *)
  informed : int;         (* nodes informed when the run stopped *)
}

let run ?(params = Params.default_approg) sinr ~rng ~source ~max_slots =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let lambda = (Induced.local_params config (Sinr.soa sinr)).Induced.lambda in
  let params =
    { params with Params.eps_approg = Float.min 0.5 (1. /. float_of_int n) }
  in
  let machine = Approx_progress.create params config ~lambda ~n ~rng in
  let engine = Engine.create sinr in
  let payload = { Events.origin = source; seq = 0; data = 0 } in
  let informed = Array.make n false in
  let informed_count = ref 1 in
  informed.(source) <- true;
  Engine.wake engine source;
  Approx_progress.start machine ~node:source payload;
  let completed = ref None in
  let budget = ref max_slots in
  while !completed = None && !budget > 0 do
    let k =
      Engine.step_select engine
        ~select:
          (Engine.walk engine ~decide:(fun v ->
               Approx_progress.decide machine ~node:v))
    in
    for i = 0 to k - 1 do
      let u = Engine.receiver engine i in
      let v = Engine.sender_of engine u in
      let w = Engine.message engine v in
      (* Relay rule of [14]: receiving the broadcast message makes the
         receiver a broadcaster (from the next epoch on). *)
      (match w with
       | Events.Data _ | Events.Decay _ ->
         if not informed.(u) then begin
           informed.(u) <- true;
           incr informed_count;
           Approx_progress.start machine ~node:u payload
         end
       | Events.Probe | Events.Neighbor_list _ | Events.Mis_round _ -> ());
      Approx_progress.on_receive machine ~receiver:u ~sender:v w
    done;
    ignore (Approx_progress.end_slot machine);
    if !informed_count = n then completed := Some (Engine.slot engine);
    decr budget
  done;
  { completed = !completed; informed = !informed_count }
