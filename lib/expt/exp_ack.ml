(* E1 — Table 1, f_ack row, plus Remark 5.3's Delta lower bound.

   Workload: the star construction (a hub with Delta broadcasting leaves)
   gives worst-case contention, plus uniform deployments for the typical
   case.  Every leaf broadcasts simultaneously; we record the bcast->ack
   delay of each and whether the broadcast was nice (all strong neighbors
   received it first).

   Expected shape (Theorem 5.1): delay grows linearly in Delta with a
   log(Lambda/eps) factor; Remark 5.3 says no implementation can beat
   Delta.

   Each (delta, seed) cell — one star build plus its full-ack simulation —
   runs as one Sweep task; all randomness comes from the cell's own seeded
   streams, so rows are identical whatever the jobs setting. *)

open Sinr_geom
open Sinr_stats
open Sinr_mac

type row = {
  delta : int;        (* realized max degree *)
  lambda : float;
  measured : Summary.t option;
  timeouts : int;
  nice_frac : float;  (* fraction of acks preceded by all-neighbor rcvs *)
  formula : float;
}

(* One grid cell: everything measured on one seeded star instance. *)
type cell = {
  c_delta : int;
  c_lambda : float;
  c_mean : float option; (* None = timeout *)
  c_nice : int;
  c_total : int;
}

let star_cell ~delta seed =
  let rng = Rng.create (0x5A1 + seed) in
  let d, s = Workloads.star rng ~delta in
  let leaves = s.Placement.leaves in
  let samples =
    Measure.acks d.Workloads.sinr
      ~rng:(Rng.split rng ~key:1)
      ~senders:(Array.to_list leaves)
      ~max_slots:4_000_000
  in
  let nice = ref 0 and total = ref 0 in
  let mean =
    match samples with
    | [] -> None
    | _ ->
      List.iter
        (fun (a : Measure.ack_sample) ->
          incr total;
          if a.Measure.reached = a.Measure.neighbors then incr nice)
        samples;
      Some
        (List.fold_left
           (fun acc (a : Measure.ack_sample) ->
             acc +. float_of_int a.Measure.delay)
           0. samples
         /. float_of_int (List.length samples))
  in
  { c_delta = d.Workloads.profile.Sinr_phys.Induced.strong_degree;
    c_lambda = d.Workloads.profile.Sinr_phys.Induced.lambda;
    c_mean = mean;
    c_nice = !nice;
    c_total = !total }

(* Aggregate one parameter's cells (in seed order): the profile columns
   come from the last seed, like the sequential fold they replace. *)
let row_of_cells cells =
  let eps_ack = Params.default_ack.Params.eps_ack in
  let last = List.nth cells (List.length cells - 1) in
  let means = List.filter_map (fun c -> c.c_mean) cells in
  let nice = List.fold_left (fun acc c -> acc + c.c_nice) 0 cells in
  let total = List.fold_left (fun acc c -> acc + c.c_total) 0 cells in
  { delta = last.c_delta;
    lambda = last.c_lambda;
    measured =
      (match means with
       | [] -> None
       | _ -> Some (Summary.of_samples (Array.of_list means)));
    timeouts = List.length cells - List.length means;
    nice_frac =
      (if total = 0 then 0. else float_of_int nice /. float_of_int total);
    formula =
      Params.f_ack_formula ~delta:last.c_delta ~lambda:last.c_lambda ~eps_ack }

let run ?(seeds = [ 1; 2; 3 ]) ?(deltas = [ 4; 8; 16; 32 ]) () =
  Report.section
    "E1: f_ack on the star construction (Table 1 row 1, Remark 5.3)";
  let table =
    Table.create ~title:"acknowledgment delay vs contention Delta"
      ~header:
        [ "delta"; "lambda"; "mean f_ack (slots)"; "timeouts"; "nice";
          "formula D*log(L/e)+logL*log(L/e)" ]
      ()
  in
  let rows =
    Sweep.grid ~params:deltas ~seeds (fun delta seed -> star_cell ~delta seed)
    |> List.map (fun (_, cells) -> row_of_cells cells)
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ string_of_int r.delta;
          Fmt.str "%.1f" r.lambda;
          Report.mean_cell r.measured;
          string_of_int r.timeouts;
          Fmt.str "%.2f" r.nice_frac;
          Fmt.str "%.0f" r.formula ])
    rows;
  Report.emit table;
  let usable = List.filter (fun r -> r.measured <> None) rows in
  let preds = Array.of_list (List.map (fun r -> r.formula) usable) in
  let ms =
    Array.of_list
      (List.map (fun r -> (Option.get r.measured).Summary.mean) usable)
  in
  print_endline (Report.shape_verdict ~label:"f_ack vs Theorem 5.1" preds ms);
  rows
