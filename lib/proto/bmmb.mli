(** The Basic Multi-Message Broadcast protocol of [37] (paper Theorem 12.5 /
    12.6); BSMB is the k = 1 case. Runs over any {!Mac_driver.t}. *)

type delivery = { node : int; msg : int; at : int }

type t

val create : Mac_driver.t -> t
(** Installs the protocol's MAC handlers (replacing any existing ones). *)

val arrive : t -> node:int -> msg:int -> unit
(** arrive(m)ᵢ: the environment inputs a message at a node. Messages are
    identified by integers and must be globally unique. *)

val step : t -> unit
(** Trigger pending bcasts, then advance the MAC one time unit. The
    protocol's own cost is O(nodes with a queued message) per step, not
    O(n): only those nodes are visited, in ascending order, and a message
    the MAC's handlers queue mid-step above the visited node is sent in
    the same step, as a scan of every node would. *)

val delivered : t -> node:int -> msg:int -> bool
val delivery_slot : t -> node:int -> msg:int -> int option
val deliveries : t -> delivery list
(** Oldest first; each (node, msg) pair appears at most once. *)

val run_until_complete :
  t -> nodes:int list -> msgs:int list -> max_steps:int -> int option
(** Steps until every alive node of [nodes] delivered every message, or
    the budget runs out. Returns the completion time. The completion test
    costs O(1) amortized per step (a cursor over [nodes]) plus one full
    check each time the cursor reaches the end; a node that revives
    undelivered is caught by that check. *)
