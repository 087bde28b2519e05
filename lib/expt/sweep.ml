(* Parallel (parameter x seed) grid runner: flatten the grid, push it
   through the shared domain pool one cell per task, regroup in input
   order.  See the .mli for the cell-purity requirements.

   The grid is materialized as a [cursor] — a (param x seed) matrix of
   optional results — so a partially-run grid can be checkpointed and
   resumed: restore the completed cells, run only the remaining ones, and
   the assembled table is identical to an uninterrupted run because every
   cell's randomness derives from its own (param, seed) pair, never from
   execution order.  [grid] is the run-to-completion special case. *)

open Sinr_par

let run_pool jobs f =
  match jobs with
  | None -> f (Pool.get ())
  | Some j -> Pool.with_jobs j f

let cells ?jobs f l =
  (* chunk:1 — grid cells are coarse (a whole deployment + simulation), so
     claim them one at a time for the best tail balance. *)
  run_pool jobs (fun pool -> Pool.map_list ~chunk:1 pool f l)

(* ------------------------------------------------------------------ *)
(* Resumable cursor                                                    *)
(* ------------------------------------------------------------------ *)

type ('p, 'c) cursor = {
  c_params : 'p array;
  c_seeds : int array;
  c_cells : 'c option array array; (* [param_index].(seed_index) *)
  mutable c_done : int;
}

let cursor ~params ~seeds =
  if params = [] then invalid_arg "Sweep.cursor: empty params";
  if seeds = [] then invalid_arg "Sweep.cursor: empty seeds";
  let nseeds = List.length seeds in
  { c_params = Array.of_list params;
    c_seeds = Array.of_list seeds;
    c_cells =
      Array.init (List.length params) (fun _ -> Array.make nseeds None);
    c_done = 0 }

let total c = Array.length c.c_params * Array.length c.c_seeds

let completed c = c.c_done

let is_complete c = c.c_done = total c

let find_index arr x =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if arr.(i) = x then Some i else go (i + 1) in
  go 0

let record c p s v =
  match (find_index c.c_params p, find_index c.c_seeds s) with
  | Some pi, Some si -> (
    match c.c_cells.(pi).(si) with
    | None ->
      c.c_cells.(pi).(si) <- Some v;
      c.c_done <- c.c_done + 1;
      true
    | Some _ -> false)
  | _ -> false

let remaining c =
  let acc = ref [] in
  for pi = Array.length c.c_params - 1 downto 0 do
    for si = Array.length c.c_seeds - 1 downto 0 do
      if c.c_cells.(pi).(si) = None then
        acc := (c.c_params.(pi), c.c_seeds.(si)) :: !acc
    done
  done;
  !acc

let completed_cells c =
  let acc = ref [] in
  for pi = Array.length c.c_params - 1 downto 0 do
    for si = Array.length c.c_seeds - 1 downto 0 do
      match c.c_cells.(pi).(si) with
      | Some v -> acc := (c.c_params.(pi), c.c_seeds.(si), v) :: !acc
      | None -> ()
    done
  done;
  !acc

let results c =
  if not (is_complete c) then
    invalid_arg
      (Printf.sprintf "Sweep.results: grid incomplete (%d/%d cells)"
         c.c_done (total c));
  Array.to_list
    (Array.mapi
       (fun pi p ->
         (p, Array.to_list (Array.map Option.get c.c_cells.(pi))))
       c.c_params)

(* Take the first [k] elements (all of them when k >= length). *)
let rec take k l =
  if k <= 0 then []
  else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl

let run_cursor ?jobs ?chunk ?(should_stop = fun () -> false) ?on_chunk c f =
  let rec loop () =
    if is_complete c then `Complete
    else if should_stop () then `Stopped
    else begin
      let rem = remaining c in
      let batch = match chunk with None -> rem | Some k -> take (max 1 k) rem in
      let results = cells ?jobs (fun (p, s) -> f p s) batch in
      List.iter2 (fun (p, s) v -> ignore (record c p s v)) batch results;
      Option.iter
        (fun g -> g c (List.map2 (fun (p, s) v -> (p, s, v)) batch results))
        on_chunk;
      loop ()
    end
  in
  loop ()

let grid ?jobs ~params ~seeds f =
  let c = cursor ~params ~seeds in
  (match run_cursor ?jobs c f with
   | `Complete -> ()
   | `Stopped -> assert false (* no should_stop installed *));
  results c
