(** The absMAC-level event (paper Section 4.4: executions are ordered
    sequences of bcast, rcv and ack events), defined once for every
    reader: the per-run [Engine.Trace], the flight-recorder ring
    ({!Span}), {!Trace_report} and the tests. JSON is built only at
    export ({!to_json}) and read back with {!of_json}. *)

type t =
  | Bcast of { node : int; msg : int }
  | Rcv of { node : int; msg : int; from : int }
  | Ack of { node : int; msg : int }
  | Abort of { node : int; msg : int }
  | Wake of { node : int }
  | Crash of { node : int }
  | Recover of { node : int }
  | Deliver of { node : int; from : int }
      (** engine-level decoding: [node] decoded [from]'s transmission *)
  | Note of string

val pp : t Fmt.t

val fields : t -> (string * Json.t) list
(** The event's JSON fields in line order: ["ev"] first, then
    ["node"], ["msg"], ["from"] ([Deliver] writes ["rx"] and ["tx"],
    [Note] writes ["text"]). *)

val to_json : t -> Json.t
(** [Json.Obj (fields e)]. *)

val of_json : Json.t -> t option
(** Inverse of {!to_json}; extra fields (["kind"], ["slot"], ["job_id"])
    are ignored. [None] when ["ev"] is unknown or a field is missing. *)
