(* Flight recorder: the dump side of the span ring.

   Span keeps the bounded ring of finished spans + events; this module
   owns when and where that ring hits disk.  Dump triggers (see the
   call sites):

   - Spec_check reports a violation     -> Exp_chaos.run_scenario
   - a node crashes mid-broadcast       -> Combined_mac.step
   - the caller asks                    -> sinr_sim --trace-out, tests

   [dump_once] deduplicates per reason so a crashy run produces one dump
   per failure class instead of one per crash; [clear] re-arms them.

   A dump is JSONL: a header line, then still-open spans (what was in
   flight when the failure hit), then the ring oldest-first.  Files are
   written via Sink.write_file, i.e. atomically. *)

(* The recorder shares Span's enable flag: one switch arms the whole
   tracing layer, so "is tracing on" is a single atomic load everywhere. *)
let set_enabled = Span.set_enabled
let is_enabled = Span.is_enabled

let mutex = Mutex.create ()
let dump_dir = ref "."
let dumped : (string, unit) Hashtbl.t = Hashtbl.create 8

let configure ?capacity ?dir () =
  (match capacity with Some c -> Span.set_capacity c | None -> ());
  match dir with
  | Some d ->
    Mutex.lock mutex;
    dump_dir := d;
    Mutex.unlock mutex
  | None -> ()

let clear () =
  Span.clear ();
  Mutex.lock mutex;
  Hashtbl.reset dumped;
  Mutex.unlock mutex

(* File-name-safe version of a dump reason. *)
let sanitize reason =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    reason

(* Does a span / loose event belong to job [id]?  Both carry the ambient
   context they were opened or recorded in (Span.with_context in the
   daemon runner), whose ["job_id"] names the job. *)
let has_job id attrs =
  match List.assoc_opt "job_id" attrs with
  | Some j -> Json.to_int j = Some id
  | None -> false

let entry_has_job id = function
  | Span.Span_entry sp -> has_job id sp.Span.attrs
  | Span.Event_entry { ctx; _ } -> has_job id ctx

(* Keep the last [n] elements of [l]. *)
let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let to_jsonl ?last ?job ~reason () =
  let open_spans = Span.open_spans () in
  let entries = Span.entries () in
  let total_entries = List.length entries in
  let open_spans, entries =
    match job with
    | None -> (open_spans, entries)
    | Some id ->
      (List.filter (fun (sp : Span.t) -> has_job id sp.Span.attrs) open_spans,
       List.filter (entry_has_job id) entries)
  in
  let entries = match last with None -> entries | Some n -> last_n (max 0 n) entries in
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Json.to_string_json j);
    Buffer.add_char buf '\n'
  in
  let served = List.length entries in
  line
    (Json.Obj
       ([ ("flight", Json.Str reason);
          ("open", Json.int (List.length open_spans));
          ("entries", Json.int served);
          ("dropped", Json.int (Span.dropped_count ())) ]
        @ (if served < total_entries then
             [ ("total_entries", Json.int total_entries) ]
           else [])
        @ (match job with
           | Some id -> [ ("job_id", Json.int id) ]
           | None -> [])));
  List.iter (fun sp -> line (Span.span_to_json sp)) open_spans;
  List.iter (fun e -> line (Span.entry_to_json e)) entries;
  Buffer.contents buf

let dump ?path ~reason () =
  let path =
    match path with
    | Some p -> p
    | None ->
      Mutex.lock mutex;
      let d = !dump_dir in
      Mutex.unlock mutex;
      Filename.concat d ("flight-" ^ sanitize reason ^ ".jsonl")
  in
  Sink.write_file path (to_jsonl ~reason ());
  path

let dump_once ?path ~reason () =
  let fresh =
    Mutex.lock mutex;
    let fresh = not (Hashtbl.mem dumped reason) in
    if fresh then Hashtbl.replace dumped reason ();
    Mutex.unlock mutex;
    fresh
  in
  if fresh then Some (dump ?path ~reason ()) else None
