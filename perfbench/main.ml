(* The repository's benchmark: one workload per process.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with telemetry off; --trace 1
   replays a fixed prefix of the same workload untraced and then traced,
   checks that both simulate the same execution, and reports the per-layer
   split.  Metric names and units come from BENCHMARK.json in the working
   directory; the last line of stdout is the JSON verdict. *)

open Sinr_obs
open Bench_util

let usage () =
  prerr_endline
    "usage: main.exe --workload smb-200|absmac-32k|daemon-chaos --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let seconds = match float_of_string_opt (get "seconds") with Some v -> v | None -> usage () in
  (get "workload", int "seed", seconds, int "trace" <> 0)

(* (name, unit) of the end-to-end or per-layer metrics, in file order. *)
let declared ~trace =
  let spec =
    try Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with Sys_error e | Json.Parse_error e ->
      prerr_endline ("cannot read BENCHMARK.json: " ^ e);
      exit 2
  in
  match Json.member (if trace then "per_layer" else "end_to_end") spec with
  | Some (Json.List ms) ->
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str name), Some (Json.Str u) -> Some (name, u)
        | _ -> None)
      ms
  | _ ->
    prerr_endline "BENCHMARK.json has no metric list";
    exit 2

let () =
  let workload, seed, seconds, trace = args () in
  let decl = declared ~trace in
  Sinr_par.Pool.set_default_jobs 1;
  let calib = host_calibration () in
  Printf.printf "host.calib_s %.4f\n%!" calib;
  let run =
    match (workload, trace) with
    | "smb-200", false -> fun () -> Wl_smb.run ~seed ~seconds
    | "smb-200", true -> fun () -> Wl_smb.run_traced ~seed
    | "absmac-32k", false -> fun () -> Wl_absmac.run ~seed ~seconds
    | "absmac-32k", true -> fun () -> Wl_absmac.run_traced ~seed
    | "daemon-chaos", false -> fun () -> Wl_daemon.run ~seed ~seconds
    | "daemon-chaos", true -> fun () -> Wl_daemon.run_traced ~seed
    | _ -> usage ()
  in
  let o =
    try run ()
    with Guard msg ->
      prerr_endline ("benchmark guard failed: " ^ msg);
      exit 1
  in
  (* The calibration is recorded every run but gated never: it is a
     per-layer reading, so only the traced verdict carries it. *)
  let produced = if trace then ("host.calib_s", calib) :: o.metrics else o.metrics in
  (* A produced metric the file does not declare is a naming slip. *)
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k decl) then begin
        prerr_endline ("metric not declared in BENCHMARK.json: " ^ k);
        exit 2
      end)
    produced;
  let absent = List.filter (fun (k, _) -> not (List.mem_assoc k produced)) decl in
  if absent <> [] then begin
    if not trace then begin
      prerr_endline ("end-to-end metrics not measured: " ^ String.concat ", " (List.map fst absent));
      exit 2
    end;
    Printf.printf "not exercised by %s (reported as 0): %s\n" workload
      (String.concat " " (List.map fst absent))
  end;
  let value k = Option.value (List.assoc_opt k produced) ~default:0. in
  List.iter (fun (k, u) -> Printf.printf "  %-30s %14.6g %s\n" k (value k) u) decl;
  Printf.printf "attempted %d failed %d correct %b\n" o.attempted o.failed o.correct;
  let metrics =
    List.map
      (fun (k, u) -> (k, Json.Obj [ ("value", Json.Num (value k)); ("unit", Json.Str u) ]))
      decl
  in
  print_endline
    (Json.to_string_json
       (Json.Obj
          [ ("correct", Json.Bool o.correct);
            ("attempted", Json.int o.attempted);
            ("failed", Json.int o.failed);
            ("metrics", Json.Obj metrics) ]))
