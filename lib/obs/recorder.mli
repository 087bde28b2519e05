(** Flight recorder: bounded in-memory history of spans + events, dumped to
    JSONL on failure or on request.

    Storage is {!Span}'s ring (typed events are recorded with
    {!Span.record_event}); this module owns the dump policy. Dumps are
    triggered by Spec_check violations (Exp_chaos), crash-mid-broadcast
    (Combined_mac), or the caller ([sinr_sim --trace-out]). Shares Span's
    enable flag — {!set_enabled}[ true] arms both spans and events. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val configure : ?capacity:int -> ?dir:string -> unit -> unit
(** [capacity]: ring size in entries (resets ring contents; default
    {!Span.default_capacity}). [dir]: directory for default dump paths
    (default ["."]). *)

val clear : unit -> unit
(** Drop ring + open spans and re-arm {!dump_once} reasons. *)

val to_jsonl : ?last:int -> ?job:int -> reason:string -> unit -> string
(** The dump text: a header line
    [{"flight":reason,"open":..,"entries":..,"dropped":..}], then
    still-open spans (oldest start first), then ring entries oldest-first,
    one JSON object per line. [?last] keeps only the newest [n] ring
    entries (the header's ["entries"] counts what is served and a
    ["total_entries"] field reports the pre-cap total when truncated).
    [?job] keeps only the spans and events whose ambient ["job_id"] —
    stamped by {!Span.with_context} in the daemon at open / record time —
    matches. Events are rendered to JSON here, not when recorded. *)

val dump : ?path:string -> reason:string -> unit -> string
(** Write {!to_jsonl} atomically and return the path written. Default path
    is [<dir>/flight-<sanitized reason>.jsonl]. Works regardless of the
    enable flag (dumping whatever history exists). *)

val dump_once : ?path:string -> reason:string -> unit -> string option
(** Like {!dump} but at most once per [reason] until {!clear}: [None] when
    this reason already dumped. Failure hooks use this so a crashy run
    yields one dump per failure class. *)
