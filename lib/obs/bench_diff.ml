(* Bench regression gate: compare a fresh BENCH_*.json snapshot against a
   committed baseline with per-metric tolerance bands.

   The direction of "worse" is inferred from the metric name — durations
   and overhead ratios ([*_ratio]: a run with a feature on over the same
   run with it off) regress upward, throughputs and speedups regress
   downward, everything else is held to a symmetric band.  Machine-dependent absolutes
   (wall-clock seconds, slots/s) should be excluded by the caller via
   ignore globs; the committed baselines gate ratios (speedups), which
   transfer across hosts.  Exit policy lives in bench/main.ml: any
   Regressed or Missing finding fails the gate, New metrics do not. *)

type direction = Higher_better | Lower_better | Band

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let direction_of_name name =
  if
    has_suffix name ".seconds" || has_suffix name ".ns"
    || has_suffix name ".minor_w" || has_suffix name "_ratio"
    || contains name "latency" || contains name "delay"
  then Lower_better
  else if
    contains name "speedup" || contains name "throughput"
    || has_suffix name ".slots_per_s" || has_suffix name ".per_s"
    || has_suffix name ".ok"
  then Higher_better
  else Band

(* Minimal glob for --ignore: '*' matches any run of characters (including
   none), everything else is literal.  Backtracking is fine at metric-name
   lengths. *)
let glob_match pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pattern.[i] with
      | '*' ->
        let rec try_tail j' = j' <= ns && (go (i + 1) j' || try_tail (j' + 1)) in
        try_tail j
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

type status = Ok | Regressed | Missing | New_metric | Ignored

type finding = {
  metric : string;
  base : float option;
  cur : float option;
  status : status;
  note : string;
}

(* Scalar view of a metric for comparison: histograms compare on p50. *)
let scalar = function
  | Metrics.Counter_v n -> float_of_int n
  | Metrics.Gauge_v v -> v
  | Metrics.Histogram_v h -> h.Metrics.p50

let compare_one ~tolerance name b c =
  let fmt = Printf.sprintf in
  if Float.is_nan b || Float.is_nan c then
    (Ok, fmt "baseline=%g current=%g (nan skipped)" b c)
  else
    let ok, dir_name =
      match direction_of_name name with
      | Higher_better ->
        (c >= b -. (tolerance *. Float.abs b), "higher-better")
      | Lower_better ->
        (c <= b +. (tolerance *. Float.abs b), "lower-better")
      | Band ->
        (Float.abs (c -. b) <= tolerance *. Float.max (Float.abs b) 1., "band")
    in
    ( (if ok then Ok else Regressed),
      fmt "baseline=%g current=%g tol=%g (%s)" b c tolerance dir_name )

let diff ?(tolerance = 0.25) ?(ignores = [])
    ~(baseline : Metrics.snapshot) ~(current : Metrics.snapshot) () =
  let ignored name = List.exists (fun p -> glob_match p name) ignores in
  let base_findings =
    List.map
      (fun (name, bv) ->
        let b = scalar bv in
        if ignored name then
          { metric = name; base = Some b; cur = None; status = Ignored;
            note = "ignored" }
        else
          match List.assoc_opt name current with
          | None ->
            { metric = name; base = Some b; cur = None; status = Missing;
              note = "metric missing from current run" }
          | Some cv ->
            let c = scalar cv in
            let status, note = compare_one ~tolerance name b c in
            { metric = name; base = Some b; cur = Some c; status; note })
      baseline
  in
  let new_findings =
    List.filter_map
      (fun (name, cv) ->
        if List.mem_assoc name baseline || ignored name then None
        else
          Some
            { metric = name; base = None; cur = Some (scalar cv);
              status = New_metric; note = "not in baseline" })
      current
  in
  base_findings @ new_findings

(* The current snapshot never materialized — the workload crashed or was
   skipped before writing its file.  That is a regression of every gated
   metric, not a usage error: one Missing finding per non-ignored
   baseline metric, so the gate fails with a per-file account (exit 1 in
   bench/main.ml) instead of an exit-2 "cannot open" that CI configs
   routinely misread as infrastructure flake. *)
let missing_current ?(ignores = []) ~(baseline : Metrics.snapshot) () =
  let ignored name = List.exists (fun p -> glob_match p name) ignores in
  List.map
    (fun (name, bv) ->
      let b = scalar bv in
      if ignored name then
        { metric = name; base = Some b; cur = None; status = Ignored;
          note = "ignored" }
      else
        { metric = name; base = Some b; cur = None; status = Missing;
          note = "current snapshot file missing" })
    baseline

let regressions findings =
  List.filter
    (fun f -> match f.status with Regressed | Missing -> true
                                | Ok | New_metric | Ignored -> false)
    findings

(* Load a snapshot file as written by Sink.write_snapshot: one JSONL line
   (trailing lines, e.g. from appended runs, are rejected — the gate wants
   an unambiguous single snapshot). *)
let load_snapshot path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    String.split_on_char '\n' contents
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [ line ] -> (
    match Sink.snapshot_of_json (Json.parse line) with
    | Some snap -> snap
    | None -> failwith (path ^ ": not a metrics snapshot"))
  | [] -> failwith (path ^ ": empty snapshot file")
  | _ -> failwith (path ^ ": expected exactly one snapshot line")

let status_name = function
  | Ok -> "ok"
  | Regressed -> "REGRESSED"
  | Missing -> "MISSING"
  | New_metric -> "new"
  | Ignored -> "ignored"

let pp_finding ppf f =
  Fmt.pf ppf "%-10s %-40s %s" (status_name f.status) f.metric f.note

let pp_findings ppf findings =
  List.iter (fun f -> Fmt.pf ppf "%a@." pp_finding f) findings
