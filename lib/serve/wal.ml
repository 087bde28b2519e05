(* Append-only write-ahead log for the sweep daemon's job store.

   Every job transition is one line,

     <crc32 of the JSON, 8 hex chars> <one-line JSON>\n

   appended with a single O_APPEND write(2), so a SIGKILL mid-append can
   tear at most the final line.  Replay applies exactly that model: a
   bad *final* line is a torn tail and is skipped; a bad line with valid
   records after it is corruption, and replay stops there so the caller
   can quarantine the file and keep the sound prefix.

   Durability is two-tier: admission and terminal records are on disk
   once the [flush] after their [append] returns; progress records
   batch, fsyncing every [fsync_every] appends — losing one on a crash
   costs re-deriving progress from the checkpoint files, never a job.
   [flush] fsyncs with no lock held, so a caller can append under its
   own lock (log order = commit order) and wait for the disk after
   releasing it. *)

open Sinr_obs

let m_appends = Metrics.counter "serve.wal.appends"
let m_syncs = Metrics.counter "serve.wal.syncs"
let m_replayed = Metrics.counter "serve.wal.replayed"
let m_torn = Metrics.counter "serve.wal.torn_tails"
let m_corrupt = Metrics.counter "serve.wal.corrupt"
let g_bytes = Metrics.gauge "serve.wal.bytes"

type event =
  | Submitted of Spec.t
  | Started of int
  | Checkpointed of int
  | Yielded
  | Strikes of int
  | Completed
  | Cancelled
  | Failed of string
  | Quarantined of string

type record = { job : int; ev : event }

let file_name = "serve.wal"
let path ~dir = Filename.concat dir file_name

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected), table-driven                        *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref (Int32.of_int i) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Record (de)serialization                                            *)
(* ------------------------------------------------------------------ *)

let event_json = function
  | Submitted spec ->
    [ ("ev", Json.Str "submitted"); ("spec", Spec.to_json spec) ]
  | Started attempt ->
    [ ("ev", Json.Str "started"); ("attempt", Json.int attempt) ]
  | Checkpointed cells ->
    [ ("ev", Json.Str "checkpointed"); ("cells", Json.int cells) ]
  | Yielded -> [ ("ev", Json.Str "yielded") ]
  | Strikes n -> [ ("ev", Json.Str "strikes"); ("n", Json.int n) ]
  | Completed -> [ ("ev", Json.Str "completed") ]
  | Cancelled -> [ ("ev", Json.Str "cancelled") ]
  | Failed reason -> [ ("ev", Json.Str "failed"); ("reason", Json.Str reason) ]
  | Quarantined reason ->
    [ ("ev", Json.Str "quarantined"); ("reason", Json.Str reason) ]

let record_json r =
  Json.Obj (("wal", Json.int 1) :: ("job", Json.int r.job) :: event_json r.ev)

let encode r =
  let payload = Json.to_string_json (record_json r) in
  Printf.sprintf "%08lx %s" (crc32 payload) payload

let event_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match str "ev" with
  | Some "submitted" -> (
    match Option.map Spec.of_json (Json.member "spec" j) with
    | Some (Ok spec) -> Some (Submitted spec)
    | _ -> None)
  | Some "started" -> Option.map (fun a -> Started a) (int "attempt")
  | Some "checkpointed" -> Option.map (fun c -> Checkpointed c) (int "cells")
  | Some "yielded" -> Some Yielded
  | Some "strikes" -> Option.map (fun n -> Strikes n) (int "n")
  | Some "completed" -> Some Completed
  | Some "cancelled" -> Some Cancelled
  | Some "failed" -> Option.map (fun r -> Failed r) (str "reason")
  | Some "quarantined" -> Option.map (fun r -> Quarantined r) (str "reason")
  | _ -> None

let decode line =
  (* "<8 hex> <payload>": CRC first, then shape. *)
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    let crc_hex = String.sub line 0 8 in
    let payload = String.sub line 9 (String.length line - 9) in
    match Int32.of_string_opt ("0x" ^ crc_hex) with
    | None -> None
    | Some crc when crc <> crc32 payload -> None
    | Some _ -> (
      match Json.parse_opt payload with
      | None -> None
      | Some j -> (
        match
          ( Option.bind (Json.member "wal" j) Json.to_int,
            Option.bind (Json.member "job" j) Json.to_int,
            event_of_json j )
        with
        | Some 1, Some job, Some ev -> Some { job; ev }
        | _ -> None))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  wal_path : string;
  fsync_every : int;
  mutable written : int; (* records appended so far *)
  mutable due : int; (* the newest durable record's number *)
  mutable synced : int; (* records known to be on disk *)
  mutable bytes : int;
  mutable healthy : bool;
  mutex : Mutex.t;
}

let open_ ?(fsync_every = 16) ~dir () =
  let wal_path = path ~dir in
  let fd =
    Unix.openfile wal_path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  let bytes = (Unix.fstat fd).Unix.st_size in
  Metrics.set g_bytes (float_of_int bytes);
  { fd;
    wal_path;
    fsync_every = max 1 fsync_every;
    written = 0;
    due = 0;
    synced = 0;
    bytes;
    healthy = true;
    mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let healthy t = locked t (fun () -> t.healthy)

(* Admission and terminal records must survive a crash that follows the
   HTTP response; progress records may ride the batch. *)
let durable_event = function
  | Submitted _ | Completed | Cancelled | Failed _ | Quarantined _ -> true
  | Started _ | Checkpointed _ | Yielded | Strikes _ -> false

let append t r =
  let line = encode r ^ "\n" in
  locked t (fun () ->
      try
        let n = Unix.write_substring t.fd line 0 (String.length line) in
        if n <> String.length line then raise (Unix.Unix_error (Unix.EIO, "write", t.wal_path));
        t.bytes <- t.bytes + n;
        t.written <- t.written + 1;
        if durable_event r.ev then t.due <- t.written;
        Metrics.incr m_appends;
        Metrics.set g_bytes (float_of_int t.bytes);
        t.healthy <- true
      with Unix.Unix_error _ -> t.healthy <- false)

(* fsync(2) covers every write that returned before it was called, so
   records 1..[upto] are durable once it returns.  No lock is held across
   it: appends carry on while the disk catches up. *)
let fsync ?(all = false) t =
  let upto =
    locked t (fun () ->
        let s = t.synced in
        if t.written > s && (all || t.due > s || t.written - s >= t.fsync_every)
        then t.written
        else 0)
  in
  if upto > 0 then
    let ok = try Unix.fsync t.fd; true with Unix.Unix_error _ -> false in
    locked t (fun () ->
        if ok then begin
          t.synced <- max t.synced upto;
          Metrics.incr m_syncs
        end
        else t.healthy <- false)

let flush t = fsync t

let close t =
  fsync ~all:true t;
  locked t (fun () -> try Unix.close t.fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type replay = {
  records : record list;
  torn_tail : bool;
  corrupt : bool;
}

let read_lines p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> Some (List.rev acc)
        in
        go [])

let replay ~dir =
  match read_lines (path ~dir) with
  | None -> { records = []; torn_tail = false; corrupt = false }
  | Some lines ->
    let n = List.length lines in
    let rec go i acc = function
      | [] -> { records = List.rev acc; torn_tail = false; corrupt = false }
      | line :: tl -> (
        match decode line with
        | Some r ->
          Metrics.incr m_replayed;
          go (i + 1) (r :: acc) tl
        | None ->
          if i = n - 1 then begin
            (* a torn final append: the expected crash shape *)
            Metrics.incr m_torn;
            { records = List.rev acc; torn_tail = true; corrupt = false }
          end
          else begin
            (* valid records follow a bad one: the file is damaged, keep
               the sound prefix and let the caller quarantine the rest *)
            Metrics.incr m_corrupt;
            { records = List.rev acc; torn_tail = false; corrupt = true }
          end)
    in
    go 0 [] lines

(* Move a damaged WAL aside (serve.wal.corrupt, .corrupt.1, ...) so the
   bytes survive for inspection while the daemon restarts clean. *)
let quarantine_file ~dir =
  let src = path ~dir in
  let rec dst k =
    let p =
      if k = 0 then src ^ ".corrupt" else Printf.sprintf "%s.corrupt.%d" src k
    in
    if Sys.file_exists p then dst (k + 1) else p
  in
  let target = dst 0 in
  match Sys.rename src target with
  | () -> Some target
  | exception Sys_error _ -> None

(* Compaction: atomically rewrite the log as just [records] (the live
   jobs' state), then reopen for appending.  Run at recovery so the WAL
   holds live jobs only, not the full history of every job ever run. *)
let reset ?fsync_every ~dir records =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf (encode r);
      Buffer.add_char buf '\n')
    records;
  Sink.write_file (path ~dir) (Buffer.contents buf);
  let t = open_ ?fsync_every ~dir () in
  (* the compacted records restate durable ones: on disk before any use *)
  if records <> [] then
    (try Unix.fsync t.fd with Unix.Unix_error _ -> t.healthy <- false);
  t
