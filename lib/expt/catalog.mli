(** The paper's experiments E1–E11, by the id both drivers accept
    ([sinr_sim exp ID] and [bench/main.exe ID]), in DESIGN.md index order.
    Each entry runs the experiment's full sweep and prints its tables;
    [chaos] also writes [BENCH_chaos.json] in the working directory. *)

val experiments : (string * (unit -> unit)) list
