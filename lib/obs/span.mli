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
    one ring. *)

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

val annotate : id -> slot:int -> string -> unit
(** Append a slot-stamped note to a still-open span. *)

val finish : id -> slot:int -> unit
(** Close the span and move it into the ring. Works even if tracing was
    disabled after {!start}, so enabled-phase spans cannot leak. *)

val record_event : slot:int -> Sim_event.t -> unit
(** Push a loose (span-less) event into the ring, stamped with the
    ambient context; no-op when disabled. The event is stored typed:
    {!entry_to_json} renders it at dump time. *)

(** {1 Ring management} *)

val default_capacity : int

val set_capacity : int -> unit
(** Re-allocate the ring (clamped to >= 16). Discards current entries. *)

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
  mutable end_slot : int;  (** -1 while open *)
  mutable attrs : (string * Json.t) list;  (** newest first *)
  mutable notes : (int * string) list;  (** (slot, text), newest first *)
}

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
(** Ring contents, oldest first. *)

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
