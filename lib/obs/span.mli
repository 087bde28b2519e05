(** Causal spans over engine slots, feeding the flight recorder.

    A span is a named slot interval with an optional parent span,
    attributes and slot-stamped text annotations. The MAC stack opens a
    root span per broadcast and hangs Hm_ack / Approx_progress
    epoch/phase/stage children off it; {!Recorder} dumps them (plus loose
    typed {!Sim_event.t} events) as JSONL.

    Everything is gated on one process-global flag, default {e off}: with
    tracing off {!start} returns {!none} without allocating, and all other
    operations cost one branch, so the hooks can sit inside per-slot
    kernels. Enable with {!set_enabled}.

    Domain-safe but intended for single-run debugging: all domains share
    one ring. The ring holds unboxed rows: recording an event stores its
    int fields (and the ambient context, when that changed) and allocates
    nothing; typed entries are built only when the ring is read. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

type id = private int
(** Handle to a span; process-unique, never reused. *)

val none : id
(** The null span: returned by {!start} when tracing is off; every
    operation on it is a no-op. Test with [(id :> int) = (none :> int)] or
    just pass it around — all operations guard themselves. *)

val start : ?parent:id -> name:string -> slot:int -> unit -> id
(** Open a span at [slot]. Returns {!none} when tracing is disabled (a
    {!none} [parent] means root). The span's initial attributes are the
    current ambient context (see {!with_context}). *)

val with_context : (string * Json.t) list -> (unit -> 'a) -> 'a
(** Prepend attributes to the process-global ambient context for the
    duration of [f], restoring it after (even on exceptions). Every span
    opened and every event recorded meanwhile, in any domain, carries the
    context: the sweep daemon tags a job's spans and events with its
    [job_id] this way. *)

val set_attr : id -> string -> Json.t -> unit
(** Set (or replace) an attribute on a still-open span. *)

(** A span note, kept typed until the ring is read. *)
type note =
  | Text of string
  | Rcv_from of { node : int; from : int }
      (** read as ["rcv@<node> from=<from>"] *)
  | Fallback of float  (** read as ["hm.fallback p=<p>"], [p] as [%.3g] *)

val annotate : id -> slot:int -> note -> unit
(** Append a slot-stamped note to a still-open span. *)

val finish : id -> slot:int -> unit
(** Close the span and move it into the ring. Works even if tracing was
    disabled after {!start}, so enabled-phase spans cannot leak. *)

val abandon : string -> Json.t -> unit
(** [abandon key v] closes every still-open span whose attributes carry
    [key] = [v] — what a scope that has ended left behind, such as the
    daemon's job [("job_id", id)] whose cells stopped mid-epoch. Each ends
    at its start slot or its newest note, whichever is later, gains an
    ["abandoned": true] attribute and moves into the ring. *)

val record_event : slot:int -> Sim_event.t -> unit
(** Push a loose (span-less) event into the ring, stamped with the
    ambient context; no-op when disabled. Every event but [Note] is stored
    as its int fields, without allocating; {!entries} rebuilds the typed
    event and {!entry_to_json} renders it at dump time. *)

val record_deliver : slot:int -> node:int -> from:int -> unit
(** [record_event ~slot (Deliver { node; from })] without building the
    event: the engine's per-decoding hook. *)

(** {1 Ring management} *)

val default_capacity : int

val set_capacity : int -> unit
(** Set the ring's size (clamped to >= 16), re-allocating it if tracing
    has been armed before; discards current entries. The ring is
    allocated when {!set_enabled}[ true] first arms tracing. *)

val capacity : unit -> int

val clear : unit -> unit
(** Drop all ring entries, open spans and the dropped count. Ids are not
    reset, so parent links stay unambiguous across clears. *)

val dropped_count : unit -> int
(** Entries overwritten since the last {!clear}/{!set_capacity}. *)

(** {1 Reading — used by {!Recorder} and the tests} *)

type t = private {
  id : id;
  parent : id;
  name : string;
  start_slot : int;
  end_slot : int;  (** -1 while open *)
  attrs : (string * Json.t) list;  (** newest first *)
  notes : (int * string) list;  (** (slot, the note's text), newest first *)
}
(** A snapshot of a span, built when the ring or the open table is read. *)

type entry =
  | Span_entry of t
  | Event_entry of {
      slot : int;
      ctx : (string * Json.t) list;
          (** the ambient context when recorded, newest first ([[]]
              outside any {!with_context}) *)
      event : Sim_event.t;
    }

val entries : unit -> entry list
(** Ring contents, oldest first, decoded from a copy of the ring. *)

val open_spans : unit -> t list
(** Spans started but not finished, by start slot then id. *)

val span_to_json : t -> Json.t
val entry_to_json : entry -> Json.t
(** One JSONL line per entry: spans as
    [{"kind":"span","id":..,"parent":..,"name":..,"start":..,"end":..,
    "attrs":{..},"notes":[[slot,text],..]}], events as
    [{"kind":"event","slot":..,<Sim_event.fields>,<context fields>}] —
    the context fields (oldest first) only when recorded inside a
    context. *)
