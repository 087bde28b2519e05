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
   recorder's storage).  The ring holds no boxed entries: an event is a
   row of unboxed ints (slot and kind, node, msg or sender) plus, when it
   changed, one pointer store for the ambient context, so recording
   allocates nothing and leaves nothing for the minor collector to
   promote.  A finished span is a reference in the same ring.  The typed
   entries ([entry], [Sim_event.t]) and their JSON are built only when
   the ring is read.  The last [capacity] entries are retained, older
   ones are overwritten and counted in [dropped].  Spans still open live
   in a side table until [finish] moves them into the ring, so a dump can
   also show what was in flight at the moment of failure.

   Domain safety: the id counter and enable flag are atomic, the open-span
   table is guarded by a mutex and the ring by its own ([ring_mutex]).
   Tracing is intended for single-run debugging, not for [Sweep.grid]
   fan-outs — all domains share the one ring. *)

let on = Atomic.make false
let is_enabled () = Atomic.get on

type id = int

let none : id = 0

(* A span note stays typed until a dump formats it: the per-event notes
   of the MAC stack cost no [Printf] on the hot path. *)
type note =
  | Text of string
  | Rcv_from of { node : int; from : int }
  | Fallback of float

let note_text = function
  | Text s -> s
  | Rcv_from { node; from } -> Printf.sprintf "rcv@%d from=%d" node from
  | Fallback p -> Printf.sprintf "hm.fallback p=%.3g" p

(* A span as recorded; [t] below is its read-time view. *)
type span = {
  sid : id;
  sparent : id;  (* [none] for roots *)
  sname : string;
  sstart : int;
  mutable send : int;  (* -1 while open *)
  mutable sattrs : (string * Json.t) list;  (* newest first *)
  mutable snotes : (int * note) list;  (* newest first *)
}

type t = {
  id : id;
  parent : id;
  name : string;
  start_slot : int;
  end_slot : int;
  attrs : (string * Json.t) list;
  notes : (int * string) list;
}

type entry =
  | Span_entry of t
  | Event_entry of {
      slot : int;
      ctx : (string * Json.t) list;  (* ambient context, newest first *)
      event : Sim_event.t;
    }

let view sp =
  { id = sp.sid;
    parent = sp.sparent;
    name = sp.sname;
    start_slot = sp.sstart;
    end_slot = sp.send;
    attrs = sp.sattrs;
    notes = List.map (fun (slot, n) -> (slot, note_text n)) sp.snotes }

(* Guards [active] and the open spans in it. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Span ids are process-unique and never reused, so a dump's parent links
   are unambiguous even across [clear]s. *)
let next_id = Atomic.make 1
let active : (id, span) Hashtbl.t = Hashtbl.create 64

let default_capacity = 32_768

(* Entry kinds, 4 bits.  A span or a [Note] holds a pointer in [boxed];
   every other kind is its int fields alone: [a] the node, [b] the msg (a
   [Deliver]'s sender), [c] a [Rcv]'s sender. *)
let k_span = 0
let k_bcast = 1
let k_rcv = 2
let k_ack = 3
let k_abort = 4
let k_wake = 5
let k_crash = 6
let k_recover = 7
let k_deliver = 8
let k_note = 9

type boxed = Unboxed | Span_ref of span | Note_ref of string

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The ring: [head] is the next write position, [size] the live prefix.
   Entry [i] is the row [rows.{3i .. 3i+2}] = [slot lsl 4 lor kind;
   a; b], plus column [i] of [c], [ctxs] and [boxed].  What every event
   writes is one 24-byte row: the ring cycles through as little cache as
   it can, since its footprint, not its instructions, is most of what
   recording costs in a run whose working set fits in cache.  [c] is
   written for rcvs only, [boxed] for spans and notes only, and [ctxs]
   when the context changes.  The int parts live outside the OCaml heap,
   so the collector neither scans them nor paces itself by them.  Slots
   must lie within ±2^58. *)
type ring = {
  rows : ints;
  c : ints;
  ctxs : (string * Json.t) list array;
  boxed : boxed array;
  mutable head : int;
  mutable size : int;
  mutable dropped : int;
}

let row_words = 3

let make_ring cap =
  let ints n fill =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill a fill;
    a
  in
  { rows = ints (row_words * cap) k_wake;
    c = ints cap 0;
    ctxs = Array.make cap [];
    boxed = Array.make cap Unboxed;
    head = 0;
    size = 0;
    dropped = 0 }

let ring_capacity r = Array.length r.boxed

(* The ring is allocated when tracing is first armed, so a process that
   never traces carries none of it; [wanted] is its configured size. *)
let wanted = Atomic.make default_capacity
let ring = Atomic.make (make_ring 0)

(* The ring's own lock.  No critical section under it raises — a new ring
   or a reader's copy is allocated before it is taken — so it is held
   without [locked]'s closure.  Lock order: [mutex], then [ring_mutex]. *)
let ring_mutex = Mutex.create ()
let lock_ring () = Mutex.lock ring_mutex
let unlock_ring () = Mutex.unlock ring_mutex

let install r =
  lock_ring ();
  Atomic.set ring r;
  unlock_ring ()

let set_capacity cap =
  Atomic.set wanted (max 16 cap);
  if ring_capacity (Atomic.get ring) > 0 then install (make_ring (Atomic.get wanted))

let capacity () = Atomic.get wanted

let set_enabled b =
  if b && ring_capacity (Atomic.get ring) = 0 then begin
    let r = make_ring (Atomic.get wanted) in
    lock_ring ();
    (* another domain may have armed it meanwhile *)
    if ring_capacity (Atomic.get ring) = 0 then Atomic.set ring r;
    unlock_ring ()
  end;
  Atomic.set on b

let clear () =
  locked (fun () ->
    Hashtbl.reset active;
    lock_ring ();
    let r = Atomic.get ring in
    (* release what the ring pointed at *)
    Bigarray.Array1.fill r.rows k_wake;
    Array.fill r.ctxs 0 (ring_capacity r) [];
    Array.fill r.boxed 0 (ring_capacity r) Unboxed;
    r.head <- 0;
    r.size <- 0;
    r.dropped <- 0;
    unlock_ring ())

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

(* Claim the next ring position and write its row; returns the position.
   Caller holds the ring's lock.  A position that held a pointer drops
   it, so an overwritten span is not kept alive; the context is stored
   only when it differs from the one already there, so a run inside one
   context pays neither a write barrier nor a store for it. *)
let[@inline] claim r kind ~slot a b =
  let cap = ring_capacity r in
  let i = r.head in
  if r.size = cap then r.dropped <- r.dropped + 1 else r.size <- r.size + 1;
  let w = row_words * i in
  let old = Bigarray.Array1.unsafe_get r.rows w land 15 in
  if old = k_span || old = k_note then
    Array.unsafe_set r.boxed i Unboxed;
  Bigarray.Array1.unsafe_set r.rows w ((slot lsl 4) lor kind);
  Bigarray.Array1.unsafe_set r.rows (w + 1) a;
  Bigarray.Array1.unsafe_set r.rows (w + 2) b;
  let ctx = Atomic.get context in
  if Array.unsafe_get r.ctxs i != ctx then Array.unsafe_set r.ctxs i ctx;
  r.head <- (if i + 1 = cap then 0 else i + 1);
  i

let push_ints kind ~slot a b =
  lock_ring ();
  ignore (claim (Atomic.get ring) kind ~slot a b);
  unlock_ring ()

let push_rcv ~slot node msg from =
  lock_ring ();
  let r = Atomic.get ring in
  let i = claim r k_rcv ~slot node msg in
  Bigarray.Array1.unsafe_set r.c i from;
  unlock_ring ()

(* [v] is built by the caller, before the lock is taken. *)
let push_boxed kind ~slot v =
  lock_ring ();
  let r = Atomic.get ring in
  let i = claim r kind ~slot 0 0 in
  Array.unsafe_set r.boxed i v;
  unlock_ring ()

let record_event ~slot (event : Sim_event.t) =
  if Atomic.get on then
    match event with
    | Bcast { node; msg } -> push_ints k_bcast ~slot node msg
    | Rcv { node; msg; from } -> push_rcv ~slot node msg from
    | Ack { node; msg } -> push_ints k_ack ~slot node msg
    | Abort { node; msg } -> push_ints k_abort ~slot node msg
    | Wake { node } -> push_ints k_wake ~slot node 0
    | Crash { node } -> push_ints k_crash ~slot node 0
    | Recover { node } -> push_ints k_recover ~slot node 0
    | Deliver { node; from } -> push_ints k_deliver ~slot node from
    | Note s -> push_boxed k_note ~slot (Note_ref s)

let record_deliver ~slot ~node ~from =
  if Atomic.get on then push_ints k_deliver ~slot node from

let start ?(parent = none) ~name ~slot () =
  if not (Atomic.get on) then none
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let sp =
      { sid = id; sparent = parent; sname = name; sstart = slot; send = -1;
        sattrs = Atomic.get context; snotes = [] }
    in
    Mutex.lock mutex;
    Hashtbl.replace active id sp;
    Mutex.unlock mutex;
    id
  end

(* The open-span updates below touch only the table and the span: none
   can raise, so they lock without [locked]'s closure. *)
let set_attr id key v =
  if id <> none then begin
    Mutex.lock mutex;
    (match Hashtbl.find_opt active id with
     | Some sp -> sp.sattrs <- (key, v) :: List.remove_assoc key sp.sattrs
     | None -> ());
    Mutex.unlock mutex
  end

let annotate id ~slot note =
  if id <> none then begin
    Mutex.lock mutex;
    (match Hashtbl.find_opt active id with
     | Some sp -> sp.snotes <- (slot, note) :: sp.snotes
     | None -> ());
    Mutex.unlock mutex
  end

(* [finish] works even with tracing switched off mid-run, so spans opened
   under the flag cannot leak in the active table. *)
let finish id ~slot =
  if id <> none then begin
    Mutex.lock mutex;
    (match Hashtbl.find_opt active id with
     | Some sp ->
       sp.send <- slot;
       Hashtbl.remove active id;
       push_boxed k_span ~slot (Span_ref sp)
     | None -> ());
    Mutex.unlock mutex
  end

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
          if List.assoc_opt key sp.sattrs = Some v then sp :: acc else acc)
        active []
      |> List.sort (fun a b -> compare a.sid b.sid)
    in
    List.iter
      (fun sp ->
        sp.send <-
          (match sp.snotes with
           | (slot, _) :: _ -> max sp.sstart slot
           | [] -> sp.sstart);
        sp.sattrs <- ("abandoned", Json.Bool true) :: sp.sattrs;
        Hashtbl.remove active sp.sid;
        push_boxed k_span ~slot:sp.send (Span_ref sp))
      left)

(* ------------------------------------------------------------------ *)
(* Reading (for Recorder and tests)                                    *)
(* ------------------------------------------------------------------ *)

(* The live entries, oldest first, copied under the ring's lock into a
   ring of exactly their number (so its [head] is 0).  The copy is
   allocated first, so the critical section only blits; if the ring
   changed size meanwhile, take it again. *)
let snapshot () =
  let rec go () =
    let r = Atomic.get ring in
    let n = r.size in
    let ints len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
    let s =
      { rows = ints (row_words * n);
        c = ints n;
        ctxs = Array.make n [];
        boxed = Array.make n Unboxed;
        head = 0;
        size = n;
        dropped = 0 }
    in
    lock_ring ();
    if Atomic.get ring != r || r.size <> n then begin
      unlock_ring ();
      go ()
    end
    else begin
      let cap = ring_capacity r in
      (* [n] entries ending just before [head], in at most two runs *)
      let first = (r.head - n + cap) mod max cap 1 in
      let run src dst len =
        let sub a i w = Bigarray.Array1.sub a (w * i) (w * len) in
        Bigarray.Array1.blit (sub r.rows src row_words) (sub s.rows dst row_words);
        Bigarray.Array1.blit (sub r.c src 1) (sub s.c dst 1);
        Array.blit r.ctxs src s.ctxs dst len;
        Array.blit r.boxed src s.boxed dst len
      in
      let l1 = min n (cap - first) in
      run first 0 l1;
      run 0 l1 (n - l1);
      s.dropped <- r.dropped;
      unlock_ring ();
      s
    end
  in
  go ()

(* The typed entry at ring position [i]. *)
let entry_at r i : entry =
  let w = row_words * i in
  let word = r.rows.{w} and a = r.rows.{w + 1} and b = r.rows.{w + 2} in
  let k = word land 15 in
  let event (ev : Sim_event.t) =
    Event_entry { slot = word asr 4; ctx = r.ctxs.(i); event = ev }
  in
  match r.boxed.(i) with
  | Span_ref sp -> Span_entry (view sp)
  | Note_ref s -> event (Note s)
  | Unboxed ->
    event
      (if k = k_bcast then Bcast { node = a; msg = b }
       else if k = k_rcv then Rcv { node = a; msg = b; from = r.c.{i} }
       else if k = k_ack then Ack { node = a; msg = b }
       else if k = k_abort then Abort { node = a; msg = b }
       else if k = k_wake then Wake { node = a }
       else if k = k_crash then Crash { node = a }
       else if k = k_recover then Recover { node = a }
       else if k = k_deliver then Deliver { node = a; from = b }
       else invalid_arg "Span: ring entry without its pointer")

(* Built newest first onto the list's tail: one cons per entry. *)
let entries () =
  let r = snapshot () in
  let rec build k acc = if k < 0 then acc else build (k - 1) (entry_at r k :: acc) in
  build (r.size - 1) []

let open_spans () =
  locked (fun () -> Hashtbl.fold (fun _ sp acc -> view sp :: acc) active [])
  |> List.sort (fun a b ->
    match compare a.start_slot b.start_slot with
    | 0 -> compare a.id b.id
    | c -> c)

let dropped_count () =
  lock_ring ();
  let d = (Atomic.get ring).dropped in
  unlock_ring ();
  d

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
