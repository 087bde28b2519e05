(** Analysis of flight-recorder dumps ({!Recorder.to_jsonl} output):
    per-message ack / progress latency percentiles against the bounds the
    MAC embedded in the [mac.bcast] span attributes, flagging messages
    that exceed them, with the overlapping Algorithm 9.1 epoch/phase spans
    printed per offender.

    Progress here is the first rcv of the message anywhere (the debugging
    view); the per-listener windows of Definition 7.1 remain Spec_check's
    job. *)

type span_rec = {
  s_id : int;
  s_parent : int option;
  s_name : string;
  s_start : int;
  s_end : int option;  (** [None] = still open when dumped *)
  s_attrs : (string * Json.t) list;
  s_notes : (int * string) list;
}

type event_rec = {
  e_slot : int;
  e_event : Sim_event.t;  (** decoded with {!Sim_event.of_json} *)
  e_job : int option;  (** the ["job_id"] a daemon job stamped *)
}

type trace = {
  header : (string * Json.t) list;
  spans : span_rec list;
  events : event_rec list;
}

val of_lines : string list -> trace
(** Parse dump lines. Raises [Json.Parse_error] on malformed JSON and
    [Failure] on lines that are neither header, span nor a decodable
    event. Blank lines are skipped. *)

val load_file : string -> trace
(** {!of_lines} over a file; raises [Sys_error] on IO failure. *)

type msg_report = {
  m_node : int;
  m_seq : int;
  m_start : int;
  m_end : int option;
  m_outcome : string;  (** ack | ack_capped | abort | crash_drop | open *)
  m_ack_delay : int option;
  m_f_ack : int option;
  m_first_rcv : int option;
  m_prog_delay : int option;
  m_f_approg : int option;
  m_late_ack : bool;   (** ack delay > f_ack (Thm 5.1 cap) *)
  m_late_prog : bool;  (** first rcv > f_approg (Thm 9.1 window) *)
}

type report = {
  messages : msg_report list;  (** by start slot *)
  horizon : int;               (** last slot seen in the dump *)
  ack_pcts : (float * float * float) option;   (** p50, p90, p99 *)
  prog_pcts : (float * float * float) option;
  flagged : msg_report list;   (** late_ack or late_prog *)
  stages : (string * int * int) list;
      (** per approg stage span name: (name, span count, total slots) *)
  approg_spans : span_rec list;
}

val analyze : trace -> report

val flagged : report -> int
(** Number of bound-exceeding messages ([trace-report --strict] exit). *)

val pp : report Fmt.t
