(* Flooding built directly on Halldorsson–Mitra local broadcast — the
   "derived from [29]" comparator of the paper's Sections 2.1 and 3:

     global SMB:  every informed node performs one HM local broadcast of
                  the message; runtime O(D * (Delta log n + log^2 n));
     global MMB:  the naive pipeline broadcasts the k messages one after
                  another, hence O((D + k) * (Delta log(n+k) + log^2(n+k)))
                  — the multiplicative D*Delta behaviour that the absMAC
                  route (Theorem 12.7) replaces by an additive one.

   The MMB experiment (E6) uses this as its second baseline. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_mac

type result = {
  completed : int option;
  informed : int;
}

(* One flood: informed nodes run Algorithm B.1 for the payload; reception
   informs and recruits the receiver. *)
let smb ?ack_params sinr ~rng ~source ~max_slots =
  let n = Sinr.n sinr in
  let config = Sinr.config sinr in
  let lambda = (Induced.local_params config (Sinr.soa sinr)).Induced.lambda in
  let ack_params = Option.value ack_params ~default:Params.default_ack in
  let hm = Hm_ack.create ack_params ~lambda ~n ~rng in
  let engine = Engine.create sinr in
  let payload = { Events.origin = source; seq = 0; data = 0 } in
  let informed = Array.make n false in
  let informed_count = ref 1 in
  informed.(source) <- true;
  Engine.wake engine source;
  Hm_ack.start hm ~node:source payload;
  let completed = ref None in
  let budget = ref max_slots in
  while !completed = None && !budget > 0 do
    let ds =
      Engine.step engine ~decide:(fun v ->
          match Hm_ack.decide hm ~node:v with
          | Some w -> Engine.Transmit w
          | None -> Engine.Listen)
    in
    List.iter
      (fun d ->
        let u = d.Engine.receiver in
        Hm_ack.on_receive hm ~node:u;
        if not informed.(u) then begin
          informed.(u) <- true;
          incr informed_count;
          Engine.wake engine u;
          Hm_ack.start hm ~node:u payload
        end)
      ds;
    if !informed_count = n then completed := Some (Engine.slot engine);
    decr budget
  done;
  { completed = !completed; informed = !informed_count }

(* The naive pipeline: one full flood per message, sequentially.  Returns
   the total slots, or None if any flood failed. *)
let mmb_sequential ?ack_params sinr ~rng ~sources ~max_slots =
  let total = ref 0 in
  let ok = ref true in
  List.iteri
    (fun i (source, _msg) ->
      if !ok then begin
        let r =
          smb ?ack_params sinr
            ~rng:(Rng.split rng ~key:(1000 + i))
            ~source
            ~max_slots:(max 0 (max_slots - !total))
        in
        match r.completed with
        | Some t -> total := !total + t
        | None -> ok := false
      end)
    sources;
  if !ok then { completed = Some !total; informed = Sinr.n sinr }
  else { completed = None; informed = 0 }
