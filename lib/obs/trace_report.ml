(* Analysis of flight-recorder dumps: per-message latency against the
   theorem bounds.

   A dump (Recorder.to_jsonl) carries mac.bcast spans whose attributes
   embed the bounds the MAC computed for the run — f_ack engine slots
   (Theorem 5.1 via the Algorithm 11.1 interleaving) and f_approg
   (Theorem 9.1's two-epoch window, doubled for interleaving).  This
   module rebuilds per-message records from the spans, measures

     ack delay      = span end - span start        (outcome ack/ack_capped)
     progress delay = first rcv of the message - span start

   and reports p50/p90/p99 of both (via Metrics' log2-bucket estimator)
   plus every message exceeding its own bound, with the approg
   epoch/phase spans overlapping the offender so the reader sees where
   the slots went.  The progress delay is listener-agnostic (first rcv
   anywhere); Definition 7.1's per-listener windows are what Spec_check
   scores — this report is the debugging view, not the spec oracle. *)

type span_rec = {
  s_id : int;
  s_parent : int option;
  s_name : string;
  s_start : int;
  s_end : int option;  (* None = still open when dumped *)
  s_attrs : (string * Json.t) list;
  s_notes : (int * string) list;
}

type event_rec = { e_slot : int; e_event : Sim_event.t; e_job : int option }

type trace = {
  header : (string * Json.t) list;
  spans : span_rec list;
  events : event_rec list;
}

let span_of_json j =
  let int' name = Option.bind (Json.member name j) Json.to_int in
  let req name =
    match int' name with
    | Some v -> v
    | None -> failwith (Printf.sprintf "span line missing %S" name)
  in
  let name =
    match Option.bind (Json.member "name" j) Json.to_string with
    | Some s -> s
    | None -> failwith "span line missing \"name\""
  in
  let attrs =
    match Json.member "attrs" j with Some (Json.Obj fs) -> fs | _ -> []
  in
  let notes =
    match Json.member "notes" j with
    | Some (Json.List items) ->
      List.filter_map
        (function
          | Json.List [ s; Json.Str text ] ->
            Option.map (fun slot -> (slot, text)) (Json.to_int s)
          | _ -> None)
        items
    | _ -> []
  in
  { s_id = req "id";
    s_parent = int' "parent";
    s_name = name;
    s_start = req "start";
    s_end = int' "end";
    s_attrs = attrs;
    s_notes = notes }

let of_lines lines =
  let header = ref [] in
  let spans = ref [] in
  let events = ref [] in
  List.iter
    (fun line ->
      if String.trim line <> "" then begin
        let j = Json.parse line in
        match Option.bind (Json.member "kind" j) Json.to_string with
        | Some "span" -> spans := span_of_json j :: !spans
        | Some "event" ->
          let int k = Option.bind (Json.member k j) Json.to_int in
          let event =
            match Sim_event.of_json j with
            | Some ev -> ev
            | None -> failwith ("unrecognised event line: " ^ line)
          in
          events :=
            { e_slot = Option.value ~default:0 (int "slot");
              e_event = event;
              e_job = int "job_id" }
            :: !events
        | Some k -> failwith (Printf.sprintf "unknown line kind %S" k)
        | None ->
          if Json.member "flight" j <> None then
            header := (match j with Json.Obj fs -> fs | _ -> [])
          else failwith "line is neither a header, a span nor an event"
      end)
    lines;
  { header = !header; spans = List.rev !spans; events = List.rev !events }

let load_file path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  of_lines lines

(* ------------------------------------------------------------------ *)
(* Per-message reconstruction                                          *)
(* ------------------------------------------------------------------ *)

type msg_report = {
  m_node : int;
  m_seq : int;
  m_start : int;
  m_end : int option;
  m_outcome : string;  (* ack | ack_capped | abort | crash_drop | open *)
  m_ack_delay : int option;   (* for ack/ack_capped outcomes *)
  m_f_ack : int option;
  m_first_rcv : int option;   (* slot of the first rcv of this message *)
  m_prog_delay : int option;
  m_f_approg : int option;
  m_late_ack : bool;
  m_late_prog : bool;
}

type report = {
  messages : msg_report list;
  horizon : int;
  ack_pcts : (float * float * float) option;   (* p50/p90/p99, acked msgs *)
  prog_pcts : (float * float * float) option;
  flagged : msg_report list;      (* late_ack or late_prog *)
  stages : (string * int * int) list;  (* approg span name, count, slots *)
  approg_spans : span_rec list;   (* epoch + phase spans, for breakdowns *)
}

let attr_int name sp =
  Option.bind (List.assoc_opt name sp.s_attrs) Json.to_int

let attr_str name sp =
  Option.bind (List.assoc_opt name sp.s_attrs) Json.to_string

(* p50/p90/p99 through the registry's log2-bucket estimator (the same code
   path the histograms use, so report numbers and metric numbers agree). *)
let percentiles = function
  | [] -> None
  | xs ->
    let counts = Array.make Metrics.nbuckets 0 in
    let lo = ref infinity and hi = ref neg_infinity in
    List.iter
      (fun x ->
        let v = float_of_int x in
        if v < !lo then lo := v;
        if v > !hi then hi := v;
        let i = Metrics.bucket_of v in
        counts.(i) <- counts.(i) + 1)
      xs;
    let total = List.length xs in
    let q p =
      Metrics.estimate_quantile ~counts ~total ~lo:!lo ~hi:!hi p
    in
    Some (q 0.5, q 0.9, q 0.99)

let analyze tr =
  let horizon =
    List.fold_left
      (fun acc sp ->
        max acc (max sp.s_start (Option.value sp.s_end ~default:sp.s_start)))
      (List.fold_left (fun acc e -> max acc e.e_slot) 0 tr.events)
      tr.spans
  in
  (* First reception slot per (origin, seq), from the mirrored rcv events. *)
  let first_rcv : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match e.e_event with
      | Sim_event.Rcv { from; msg; _ } ->
        let key = (from, msg) in
        (match Hashtbl.find_opt first_rcv key with
         | Some s when s <= e.e_slot -> ()
         | _ -> Hashtbl.replace first_rcv key e.e_slot)
      | _ -> ())
    tr.events;
  let messages =
    List.filter_map
      (fun sp ->
        if sp.s_name <> "mac.bcast" then None
        else
          match (attr_int "node" sp, attr_int "seq" sp) with
          | Some node, Some seq ->
            let outcome =
              Option.value (attr_str "outcome" sp)
                ~default:(if sp.s_end = None then "open" else "?")
            in
            let f_ack = attr_int "f_ack" sp in
            let f_approg = attr_int "f_approg" sp in
            let ack_delay =
              match (outcome, sp.s_end) with
              | (("ack" | "ack_capped"), Some e) -> Some (e - sp.s_start)
              | _ -> None
            in
            let first = Hashtbl.find_opt first_rcv (node, seq) in
            let prog_delay = Option.map (fun s -> s - sp.s_start) first in
            let late v bound =
              match (v, bound) with
              | Some d, Some b -> d > b
              | _ -> false
            in
            Some
              { m_node = node;
                m_seq = seq;
                m_start = sp.s_start;
                m_end = sp.s_end;
                m_outcome = outcome;
                m_ack_delay = ack_delay;
                m_f_ack = f_ack;
                m_first_rcv = first;
                m_prog_delay = prog_delay;
                m_f_approg = f_approg;
                m_late_ack = late ack_delay f_ack;
                m_late_prog = late prog_delay f_approg }
          | _ -> None)
      tr.spans
    |> List.sort (fun a b ->
      match compare a.m_start b.m_start with
      | 0 -> compare (a.m_node, a.m_seq) (b.m_node, b.m_seq)
      | c -> c)
  in
  let stages =
    let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        match sp.s_name with
        | "approg.probe" | "approg.list" | "approg.mis" | "approg.data" ->
          let dur = Option.value sp.s_end ~default:horizon - sp.s_start in
          let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl sp.s_name) in
          Hashtbl.replace tbl sp.s_name (c + 1, s + max 0 dur)
        | _ -> ())
      tr.spans;
    Hashtbl.fold (fun name (c, s) acc -> (name, c, s) :: acc) tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  { messages;
    horizon;
    ack_pcts = percentiles (List.filter_map (fun m -> m.m_ack_delay) messages);
    prog_pcts =
      percentiles (List.filter_map (fun m -> m.m_prog_delay) messages);
    flagged = List.filter (fun m -> m.m_late_ack || m.m_late_prog) messages;
    stages;
    approg_spans =
      List.filter
        (fun sp -> sp.s_name = "approg.epoch" || sp.s_name = "approg.phase")
        tr.spans }

let flagged r = List.length r.flagged

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let overlapping r m =
  let m_end = Option.value m.m_end ~default:r.horizon in
  List.filter
    (fun sp ->
      let e = Option.value sp.s_end ~default:r.horizon in
      sp.s_start <= m_end && e >= m.m_start)
    r.approg_spans

let pp_pcts ppf (label, bound, pcts) =
  match pcts with
  | None -> Fmt.pf ppf "%-9s no samples@." label
  | Some (p50, p90, p99) ->
    Fmt.pf ppf "%-9s p50=%.0f p90=%.0f p99=%.0f%s@." label p50 p90 p99
      (match bound with
       | Some b -> Fmt.str "  (bound %d)" b
       | None -> "")

let pp ppf r =
  Fmt.pf ppf "trace-report: %d message(s), horizon slot %d@."
    (List.length r.messages) r.horizon;
  (* The bounds are per-message attributes but constant within one run;
     print the max so mixed dumps stay honest. *)
  let max_bound f =
    List.fold_left
      (fun acc m -> match f m with Some b -> Some (max b (Option.value acc ~default:b)) | None -> acc)
      None r.messages
  in
  pp_pcts ppf ("ack", max_bound (fun m -> m.m_f_ack), r.ack_pcts);
  pp_pcts ppf ("progress", max_bound (fun m -> m.m_f_approg), r.prog_pcts);
  if r.stages <> [] then begin
    Fmt.pf ppf "approg stages:@.";
    List.iter
      (fun (name, count, slots) ->
        Fmt.pf ppf "  %-14s spans=%d slots=%d@." name count slots)
      r.stages
  end;
  Fmt.pf ppf
    "%5s %4s %7s %10s %6s %6s %6s %8s@." "node" "seq" "start" "outcome"
    "ack" "f_ack" "prog" "f_approg";
  List.iter
    (fun m ->
      let opt = function Some v -> string_of_int v | None -> "-" in
      Fmt.pf ppf "%5d %4d %7d %10s %6s %6s %6s %8s%s@." m.m_node m.m_seq
        m.m_start m.m_outcome (opt m.m_ack_delay) (opt m.m_f_ack)
        (opt m.m_prog_delay) (opt m.m_f_approg)
        (if m.m_late_ack || m.m_late_prog then "  <-- EXCEEDS BOUND" else ""))
    r.messages;
  if r.flagged <> [] then begin
    Fmt.pf ppf "@.%d message(s) exceed their bound:@." (List.length r.flagged);
    List.iter
      (fun m ->
        Fmt.pf ppf "  node %d seq %d [%d, %s] outcome=%s%s%s@." m.m_node
          m.m_seq m.m_start
          (match m.m_end with Some e -> string_of_int e | None -> "open")
          m.m_outcome
          (if m.m_late_ack then " late-ack" else "")
          (if m.m_late_prog then " late-progress" else "");
        List.iter
          (fun sp ->
            let phase =
              match
                Option.bind (List.assoc_opt "phase" sp.s_attrs) Json.to_int
              with
              | Some p -> Fmt.str " phase=%d" p
              | None -> ""
            in
            let epoch =
              match
                Option.bind (List.assoc_opt "epoch" sp.s_attrs) Json.to_int
              with
              | Some e -> Fmt.str " epoch=%d" e
              | None -> ""
            in
            Fmt.pf ppf "    %-13s [%d, %s]%s%s@." sp.s_name sp.s_start
              (match sp.s_end with
               | Some e -> string_of_int e
               | None -> "open")
              epoch phase)
          (overlapping r m))
      r.flagged
  end
