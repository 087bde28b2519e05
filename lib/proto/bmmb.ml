(* The Basic Multi-Message Broadcast (BMMB) protocol of Khabbazian,
   Kowalski, Kuhn and Lynch [37], as restated in the paper's proof of
   Theorem 12.6:

     Every process i maintains a FIFO queue bcastq and a set rcvd, both
     initially empty.  If i is not currently sending a message on the MAC
     layer and bcastq is not empty, it sends the head of the queue with a
     bcast output.  If i receives a message from the environment via
     arrive(m)_i, it immediately delivers m to the environment, and adds m
     to the back of bcastq and to rcvd.  If i receives m from the MAC layer
     via rcv(m)_i, it discards it when m is in rcvd; otherwise it delivers
     m, and adds m to bcastq and rcvd.

   BSMB (single-message broadcast) is the k = 1 special case with the
   message starting at a designated node i_0.

   Theorem 12.6 is what makes this correct over our *approximate-progress*
   MAC: once a message is received — whether the transmitter was a
   G~-neighbor or a G-neighbor — it is enqueued exactly once, so replacing
   (f_prog, G) by (f_approg, G~) changes only the runtime accounting. *)

module Node_set = Sinr_engine.Node_set

type delivery = { node : int; msg : int; at : int }

type t = {
  mac : Mac_driver.t;
  bcastq : int Queue.t array;
  pending : Node_set.t; (* the nodes with a non-empty [bcastq] *)
  rcvd : (int, unit) Hashtbl.t array;
  mutable deliveries : delivery list; (* newest first *)
  delivered_at : (int * int, int) Hashtbl.t; (* (node, msg) -> slot *)
}

let deliver t ~node ~msg =
  if not (Hashtbl.mem t.delivered_at (node, msg)) then begin
    let at = t.mac.Mac_driver.now () in
    Hashtbl.add t.delivered_at (node, msg) at;
    t.deliveries <- { node; msg; at } :: t.deliveries
  end

let handle_message t ~node ~msg =
  if not (Hashtbl.mem t.rcvd.(node) msg) then begin
    Hashtbl.add t.rcvd.(node) msg ();
    deliver t ~node ~msg;
    Queue.add msg t.bcastq.(node);
    Node_set.add t.pending node
  end

let create mac =
  let t =
    { mac;
      bcastq = Array.init mac.Mac_driver.n (fun _ -> Queue.create ());
      pending = Node_set.create mac.Mac_driver.n;
      rcvd = Array.init mac.Mac_driver.n (fun _ -> Hashtbl.create 8);
      deliveries = [];
      delivered_at = Hashtbl.create 64 }
  in
  mac.Mac_driver.set_handlers
    { Sinr_mac.Absmac_intf.on_rcv =
        (fun ~node ~payload ->
          handle_message t ~node ~msg:payload.Sinr_mac.Events.data);
      on_ack = (fun ~node:_ ~payload:_ -> ()) };
  t

(* arrive(m)_i: the environment inputs message [msg] at [node]. *)
let arrive t ~node ~msg = handle_message t ~node ~msg

(* One protocol step: trigger pending bcasts, then advance the MAC.  The
   walk visits only the nodes with a queued message, in ascending order,
   and sees updates made by the MAC's handlers as a scan of every node
   would: a message queued above the current node is sent in this step,
   one queued below it in the next. *)
let step t =
  let mac = t.mac in
  Node_set.iter t.pending (fun node ->
      if mac.Mac_driver.alive ~node && not (mac.Mac_driver.busy ~node)
      then begin
        let q = t.bcastq.(node) in
        let msg = Queue.pop q in
        if Queue.is_empty q then Node_set.remove t.pending node;
        ignore (mac.Mac_driver.bcast ~node ~data:msg)
      end);
  mac.Mac_driver.step ()

let delivered t ~node ~msg = Hashtbl.mem t.delivered_at (node, msg)

let delivery_slot t ~node ~msg = Hashtbl.find_opt t.delivered_at (node, msg)

let deliveries t = List.rev t.deliveries

(* Run until every alive node in [nodes] has delivered every message of
   [msgs], or [max_steps] MAC steps elapse.  Returns the completion time.

   Completion is tracked by a cursor over [nodes]: every node before it
   was done (dead, or delivered every message) when the cursor passed it.
   Delivery is monotone but death is not — a crashed node can revive
   undelivered — so reaching the end only triggers one full check, and a
   failed check moves the cursor back to the first node that is not done.
   [complete ()] therefore answers exactly what the full check would, at
   O(1) amortized cost per step instead of O(|nodes|). *)
let run_until_complete t ~nodes ~msgs ~max_steps =
  let nodes = Array.of_list nodes in
  let len = Array.length nodes in
  let done_ node =
    (not (t.mac.Mac_driver.alive ~node))
    || List.for_all (fun msg -> delivered t ~node ~msg) msgs
  in
  let first_not_done from =
    let k = ref from in
    while !k < len && done_ nodes.(!k) do
      incr k
    done;
    !k
  in
  let cursor = ref 0 in
  let complete () =
    cursor := first_not_done !cursor;
    !cursor = len
    && begin
      cursor := first_not_done 0;
      !cursor = len
    end
  in
  let steps = ref 0 in
  while (not (complete ())) && !steps < max_steps do
    step t;
    incr steps
  done;
  if complete () then Some (t.mac.Mac_driver.now ()) else None
