(* Causal spans: the per-message half of the observability layer.

   A span is an interval of engine slots with a name, an optional parent,
   attributes, and slot-stamped annotations.  [Combined_mac.bcast] opens a
   root span per message; the Hm_ack and Approx_progress machines hang
   epoch/phase/stage children off it, so a dump reconstructs where a
   message spent its slots (see DESIGN.md "Causal tracing").

   Like Metrics, the whole subsystem sits behind one process-global atomic
   flag: with tracing off, [start] returns [none] without allocating and
   every other operation is a load-and-branch (or an integer compare
   against [none]), so the hooks can live inside per-slot kernels.

   Finished spans and loose events land in a bounded ring (the flight
   recorder's storage).  Events stay typed ([Sim_event.t]) in the ring;
   JSON is built only by [entry_to_json] when a dump is written.  The
   last [capacity] entries are retained, older
   ones are overwritten and counted in [dropped].  Spans still open live
   in a side table until [finish] moves them into the ring, so a dump can
   also show what was in flight at the moment of failure.

   Domain safety mirrors Metrics: the id counter and enable flag are
   atomic, everything else is guarded by one mutex.  Tracing is intended
   for single-run debugging, not for [Sweep.grid] fan-outs — all domains
   share the one ring. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let is_enabled () = Atomic.get on

type id = int

let none : id = 0

type t = {
  id : id;
  parent : id;  (* [none] for roots *)
  name : string;
  start_slot : int;
  mutable end_slot : int;  (* -1 while open *)
  mutable attrs : (string * Json.t) list;  (* newest first *)
  mutable notes : (int * string) list;  (* (slot, text), newest first *)
}

type entry =
  | Span_entry of t
  | Event_entry of {
      slot : int;
      ctx : (string * Json.t) list;  (* ambient context, newest first *)
      event : Sim_event.t;
    }

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Span ids are process-unique and never reused, so a dump's parent links
   are unambiguous even across [clear]s. *)
let next_id = Atomic.make 1
let active : (id, t) Hashtbl.t = Hashtbl.create 64

let default_capacity = 32_768

(* The ring: [head] is the next write position, [size] the live prefix.
   Slots outside the live prefix hold [vacant], so a push stores the entry
   itself, not an option around it. *)
let vacant = Event_entry { slot = 0; ctx = []; event = Sim_event.Note "" }
let ring = ref (Array.make default_capacity vacant)
let head = ref 0
let size = ref 0
let dropped = ref 0

let set_capacity cap =
  let cap = max 16 cap in
  locked (fun () ->
    ring := Array.make cap vacant;
    head := 0;
    size := 0;
    dropped := 0)

let capacity () = locked (fun () -> Array.length !ring)

let clear () =
  locked (fun () ->
    Array.fill !ring 0 (Array.length !ring) vacant;
    head := 0;
    size := 0;
    dropped := 0;
    Hashtbl.reset active)

(* Caller holds the mutex. *)
let push e =
  let r = !ring in
  let cap = Array.length r in
  if !size = cap then incr dropped else incr size;
  r.(!head) <- e;
  head := (!head + 1) mod cap

(* Ambient context: attributes stamped onto every span opened and every
   event recorded while the context is set.  The daemon's runner scopes a
   [("job_id", ...)] pair around each job so every span and event inside
   the job's cells — engine, MAC, physics — carries the job identity
   without threading it through the whole call stack.  One atomic load on
   [start] / [record_event] when tracing is on; nothing at all when it is
   off. *)
let context : (string * Json.t) list Atomic.t = Atomic.make []

let with_context attrs f =
  let prev = Atomic.get context in
  Atomic.set context (attrs @ prev);
  Fun.protect ~finally:(fun () -> Atomic.set context prev) f

(* The event stays typed in the ring; [entry_to_json] renders it only when
   a dump is written.  The context list is shared, not copied. *)
let record_event ~slot event =
  if Atomic.get on then begin
    let e = Event_entry { slot; ctx = Atomic.get context; event } in
    (* [push] cannot raise, so the hot path skips [locked]'s closure. *)
    Mutex.lock mutex;
    push e;
    Mutex.unlock mutex
  end

let start ?(parent = none) ~name ~slot () =
  if not (Atomic.get on) then none
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let sp =
      { id; parent; name; start_slot = slot; end_slot = -1;
        attrs = Atomic.get context; notes = [] }
    in
    locked (fun () -> Hashtbl.replace active id sp);
    id
  end

let set_attr id key v =
  if id <> none then
    locked (fun () ->
      match Hashtbl.find_opt active id with
      | Some sp -> sp.attrs <- (key, v) :: List.remove_assoc key sp.attrs
      | None -> ())

let annotate id ~slot text =
  if id <> none then
    locked (fun () ->
      match Hashtbl.find_opt active id with
      | Some sp -> sp.notes <- (slot, text) :: sp.notes
      | None -> ())

(* [finish] works even with tracing switched off mid-run, so spans opened
   under the flag cannot leak in the active table. *)
let finish id ~slot =
  if id <> none then
    locked (fun () ->
      match Hashtbl.find_opt active id with
      | Some sp ->
        sp.end_slot <- slot;
        Hashtbl.remove active id;
        push (Span_entry sp)
      | None -> ())

(* Spans left open by a scope that has ended — a daemon job whose cells
   stopped mid-epoch never reach the machines' own [finish] — would stay
   in the active table (and in every dump's open list) for the life of
   the process.  Close the ones carrying [key = v] in id order, each at
   the latest slot it recorded (its start or newest note), marked
   ["abandoned"]. *)
let abandon key v =
  locked (fun () ->
    let left =
      Hashtbl.fold
        (fun _ sp acc ->
          if List.assoc_opt key sp.attrs = Some v then sp :: acc else acc)
        active []
      |> List.sort (fun a b -> compare a.id b.id)
    in
    List.iter
      (fun sp ->
        sp.end_slot <-
          (match sp.notes with
           | (slot, _) :: _ -> max sp.start_slot slot
           | [] -> sp.start_slot);
        sp.attrs <- ("abandoned", Json.Bool true) :: sp.attrs;
        Hashtbl.remove active sp.id;
        push (Span_entry sp))
      left)

(* ------------------------------------------------------------------ *)
(* Reading (for Recorder and tests)                                    *)
(* ------------------------------------------------------------------ *)

let entries () =
  locked (fun () ->
    let r = !ring in
    let cap = Array.length r in
    let n = !size in
    let first = (!head - n + cap) mod cap in
    List.init n (fun i -> r.((first + i) mod cap)))

let open_spans () =
  locked (fun () -> Hashtbl.fold (fun _ sp acc -> sp :: acc) active [])
  |> List.sort (fun a b ->
    match compare a.start_slot b.start_slot with
    | 0 -> compare a.id b.id
    | c -> c)

let dropped_count () = locked (fun () -> !dropped)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let span_to_json sp =
  Json.Obj
    [ ("kind", Json.Str "span");
      ("id", Json.int sp.id);
      ("parent", if sp.parent = none then Json.Null else Json.int sp.parent);
      ("name", Json.Str sp.name);
      ("start", Json.int sp.start_slot);
      ("end", if sp.end_slot < 0 then Json.Null else Json.int sp.end_slot);
      ("attrs", Json.Obj (List.rev sp.attrs));
      ("notes",
       Json.List
         (List.rev_map
            (fun (slot, text) ->
              Json.List [ Json.int slot; Json.Str text ])
            sp.notes)) ]

let entry_to_json = function
  | Span_entry sp -> span_to_json sp
  | Event_entry { slot; ctx; event } ->
    (* Event lines read like Trace JSONL with a kind discriminator; the
       context (a daemon job's ["job_id"]) follows the event's fields. *)
    Json.Obj
      (("kind", Json.Str "event") :: ("slot", Json.int slot)
       :: (Sim_event.fields event @ List.rev ctx))
