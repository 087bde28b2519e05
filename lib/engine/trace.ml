(* Bounded event traces for debugging and for assertions over executions.

   The absMAC specification (Section 4.4) is stated over executions — ordered
   sequences of bcast/rcv/ack events with timing constraints.  Tests record
   executions with this module and then check spec predicates over them.
   The event type is [Sinr_obs.Sim_event.t], re-exported so [Trace.Bcast]
   patterns read naturally; its printer and JSON shape live there. *)

type event = Sinr_obs.Sim_event.t =
  | Bcast of { node : int; msg : int }
  | Rcv of { node : int; msg : int; from : int }
  | Ack of { node : int; msg : int }
  | Abort of { node : int; msg : int }
  | Wake of { node : int }
  | Crash of { node : int }
  | Recover of { node : int }
  | Deliver of { node : int; from : int }
  | Note of string

type entry = { slot : int; event : event }

type t = {
  capacity : int;
  mutable entries : entry list; (* newest first *)
  mutable size : int;
  mutable dropped : int;
}

let create ?(capacity = 100_000) () =
  { capacity; entries = []; size = 0; dropped = 0 }

(* Tail-recursive prefix-take: the buffer holds up to 100k entries by
   default, well past the point where a non-tail scan risks the stack. *)
let take_prefix k entries =
  let rec go acc k = function
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | e :: rest -> go (e :: acc) (k - 1) rest
  in
  go [] k entries

let record t ~slot event =
  if t.size >= t.capacity then begin
    (* Drop the oldest half rather than scanning per insert. *)
    let keep = t.capacity / 2 in
    t.dropped <- t.dropped + (t.size - keep);
    t.entries <- take_prefix keep t.entries;
    t.size <- keep
  end;
  t.entries <- { slot; event } :: t.entries;
  t.size <- t.size + 1

let events t = List.rev t.entries

let dropped t = t.dropped

let find_first t pred =
  (* Oldest-first scan; List.rev and the walk are both tail-recursive, so a
     full-capacity buffer cannot blow the stack. *)
  let rec scan = function
    | [] -> None
    | e :: rest -> if pred e then Some e else scan rest
  in
  scan (List.rev t.entries)

let count t pred =
  List.fold_left (fun acc e -> if pred e then acc + 1 else acc) 0 t.entries

(* The one record call for the engine and every MAC: append to the
   attached per-run trace, and — with tracing armed — push the same typed
   event into the flight-recorder ring (Span checks the flag). *)
let emit trace ~slot ev =
  (match trace with Some t -> record t ~slot ev | None -> ());
  Sinr_obs.Span.record_event ~slot ev

(* JSONL export, one event per line: the slot, then the event's fields. *)
let to_jsonl t =
  let open Sinr_obs in
  let line e =
    Json.Obj (("slot", Json.int e.slot) :: Sim_event.fields e.event)
  in
  String.concat ""
    (List.map (fun e -> Json.to_string_json (line e) ^ "\n") (events t))
