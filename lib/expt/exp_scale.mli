(** The large-n engine workload behind [sinr_sim scale] and the [scale]
    bench (DESIGN.md §15): a uniform constant-density deployment streamed
    straight into position columns, every node awake, and random
    transmitters resolved on the auto-installed sparse path. *)

type result = {
  setup_s : float;  (** placement, [Sinr.create_soa] and the wakeups *)
  run_s : float;  (** the [slots] engine steps *)
  slots_per_s : float;
  tx : int;
  deliveries : int;
  sparse : bool;  (** the sparse resolution path was installed *)
}

val run : seed:int -> n:int -> slots:int -> result
(** Place [n] nodes from [seed] (side [4.4 √n], about 20 in-range
    neighbours per node at R = 12), then step [slots] slots in which each
    node transmits with probability [s / n], drawn by a hash of the slot
    and the node. The expected sender count [s = max 64 (min 1000
    (n / 333))] is enough concurrent load to exercise the far-field
    aggregation, capped so the per-slot sender work stays O(active) as
    [n] grows. *)
