(* Global single-message broadcast by Decay flooding.

   The classic BGI recipe adapted to the SINR model: every informed node
   runs the Decay probability sweep with the network size n known (cycles
   of length log n + 1), and every reception informs the receiver.  Its
   per-hop cost is polylog(n) and independent of Lambda — the character of
   the Jurdzinski et al. [32] class of algorithms that Table 2's crossover
   (log^{alpha+1} Lambda vs log^2 n) is about; DESIGN.md documents this
   substitution.

   Unlike the absMAC stack this baseline assumes n is known, exactly like
   [32] assumes synchronous wakeup and geometry knowledge. *)

open Sinr_phys
open Sinr_engine
open Sinr_mac

type result = {
  completed : int option;
  informed : int;
}

let run sinr ~rng ~source ~max_slots =
  let n = Sinr.n sinr in
  let decay = Decay.create ~n_tilde:(max 2 n) ~n ~rng in
  let engine = Engine.create sinr in
  let payload = { Events.origin = source; seq = 0; data = 0 } in
  let informed = Array.make n false in
  let informed_count = ref 1 in
  informed.(source) <- true;
  Engine.wake engine source;
  Decay.start decay ~node:source ~slot:0 payload;
  let completed = ref None in
  let budget = ref max_slots in
  while !completed = None && !budget > 0 do
    let slot = Engine.slot engine in
    let k =
      Engine.step_select engine
        ~select:
          (Engine.walk engine ~decide:(fun v ->
               Decay.decide decay ~node:v ~slot))
    in
    for i = 0 to k - 1 do
      let u = Engine.receiver engine i in
      if not informed.(u) then begin
        informed.(u) <- true;
        incr informed_count;
        Decay.start decay ~node:u ~slot:(Engine.slot engine) payload
      end
    done;
    if !informed_count = n then completed := Some (Engine.slot engine);
    decr budget
  done;
  { completed = !completed; informed = !informed_count }
