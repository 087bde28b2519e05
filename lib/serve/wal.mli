(** Append-only write-ahead log for the daemon's job store.

    One record per line, [<crc32 hex> <one-line JSON>], appended with a
    single [O_APPEND] write so a crash tears at most the final line.
    Replay distinguishes the two failure shapes:

    - {b torn tail} — the final line fails CRC/parse: skipped silently
      (counted in [serve.wal.torn_tails]); this is the normal
      SIGKILL-mid-append residue;
    - {b corruption} — a bad line with valid records after it: replay
      keeps the sound prefix and reports [corrupt = true] so the caller
      can move the file aside ({!quarantine_file}) and restart clean.

    Durability is two-tier: submitted/terminal records are on disk once
    the {!flush} after their {!append} returns; progress records
    (started/cells/yielded/strikes) batch on [fsync_every]. Power loss
    can therefore drop the progress records after the last durable one:
    their cells are re-run, and an attempt whose [started] record was not
    yet synced comes back with one strike fewer.
    Appends are mutex-protected (the HTTP accept domain and the job loop
    both append); fsyncs hold no lock. No writer operation raises: an
    I/O failure flips {!healthy}, which [/readyz] reports. *)

open Sinr_obs

type event =
  | Submitted of Spec.t  (** job admitted (durable) *)
  | Started of int  (** attempt [n] (1-based) began *)
  | Cells of (int * int * Json.t) list
      (** [(param, seed, cell)]: the cells finished since the job's
          previous record, in grid order. An older daemon's
          [{"ev":"checkpointed"}] line decodes as [Cells []]. *)
  | Yielded  (** attempt closed gracefully (drain) — not a strike *)
  | Strikes of int
      (** back to Queued with [n] attempts on record: a retry, and the
          compaction form *)
  | Completed  (** terminal (durable) *)
  | Cancelled  (** terminal (durable) *)
  | Failed of string  (** terminal (durable) *)
  | Quarantined of string  (** terminal (durable): poison, parked *)

type record = { job : int; ev : event }

val cells_json : (int * int * Json.t) list -> Json.t
(** [[{"param","seed","cell"}, ...]]: the cells as a [Cells] record and
    a job's [partial] carry them. *)

val path : dir:string -> string
(** [<dir>/serve.wal]. *)

val encode : record -> string
(** The on-disk line (without the newline): CRC, space, JSON. *)

val decode : string -> record option
(** Inverse of {!encode}; [None] on CRC mismatch or malformed JSON. *)

type t

val open_ : ?fsync_every:int -> dir:string -> unit -> t
(** Open (creating if missing) for appending. [fsync_every] (default 16,
    clamped [>= 1]) batches fsyncs of non-durable records. *)

val append : t -> record -> unit
(** Write one record (one [write(2)], no fsync). Never raises; I/O
    failure flips {!healthy}. *)

val flush : t -> unit
(** fsync if a durable record or [fsync_every] records are unsynced;
    returns once every durable record appended before the call is on
    disk. Holds no lock across the fsync. *)


val healthy : t -> bool

val close : t -> unit
(** fsync everything appended, then close. *)

type replay = {
  records : record list;  (** the sound prefix, in append order *)
  torn_tail : bool;
  corrupt : bool;
}

val replay : dir:string -> replay
(** Read the log back; a missing file is an empty replay. *)

val quarantine_file : dir:string -> string option
(** Rename a damaged WAL to [serve.wal.corrupt(.k)]; the new name, or
    [None] if the rename failed. *)

val reset : ?fsync_every:int -> dir:string -> record list -> t
(** Atomically rewrite the log as exactly [records] (compaction at
    recovery), then reopen it for appending. *)
