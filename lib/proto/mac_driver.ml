(* Uniform handle over absMAC implementations.

   Protocols above the layer ([37]'s BSMB/BMMB, Newport-style consensus)
   are written against this record of operations, so each protocol runs
   unchanged over the ideal graph-based MAC (for spec-level testing) and
   over Algorithm 11.1 on the SINR simulator (for the experiments) —
   exactly the plug-and-play property the absMAC theory advertises. *)

open Sinr_mac

type t = {
  n : int;
  now : unit -> int;
  bounds : Absmac_intf.bounds;
  set_handlers : Absmac_intf.handlers -> unit;
  bcast : node:int -> data:int -> Events.payload;
  abort : node:int -> unit;
  busy : node:int -> bool;
  step : unit -> unit;
  alive : node:int -> bool; (* false for crashed nodes *)
}

(* One constructor for every implementation: packing the MAC as an
   [Absmac_intf.S] makes the compiler check the interface claim. *)
let of_mac (type m) (module M : Absmac_intf.S with type t = m) ~alive mac =
  { n = M.n mac;
    now = (fun () -> M.now mac);
    bounds = M.bounds mac;
    set_handlers = M.set_handlers mac;
    bcast = (fun ~node ~data -> M.bcast mac ~node ~data);
    abort = (fun ~node -> M.abort mac ~node);
    busy = (fun ~node -> M.busy mac ~node);
    step = (fun () -> M.step mac);
    alive }

let of_ideal mac = of_mac (module Ideal_mac) mac ~alive:(fun ~node:_ -> true)

let not_crashed engine ~node = not (Sinr_engine.Engine.is_crashed engine node)

let of_decay mac =
  of_mac (module Decay_mac) mac ~alive:(not_crashed (Decay_mac.engine mac))

let of_combined mac =
  of_mac (module Combined_mac) mac
    ~alive:(not_crashed (Combined_mac.engine mac))

(* ------------------------------------------------------------------ *)
(* Retry-with-deadline wrapper                                         *)
(* ------------------------------------------------------------------ *)

(* Under adversarial abort pressure and crash faults (lib/chaos) a bcast
   can die without an ack.  [with_retry] wraps a driver so that a payload
   whose broadcast was aborted — or stuck busy past the layer's own
   [bounds.f_ack] deadline — is re-issued with capped exponential backoff,
   up to [max_attempts] total attempts.  An abort through the *wrapped*
   driver is intentional (the environment cancelled the payload) and
   cancels its retries; aborts that bypass the wrapper (chaos forcing the
   inner layer, or a crash dropping the broadcast) are observed in [step]
   as "pending payload, not busy, no retry scheduled" and rescheduled. *)

module Metrics = Sinr_obs.Metrics

let m_retries = Metrics.counter "driver.retry.reissues"
let m_timeouts = Metrics.counter "driver.retry.timeouts"
let m_gave_up = Metrics.counter "driver.retry.gave_up"
let m_recovered = Metrics.counter "driver.retry.recovered"

type retry_stats = {
  reissues : int;   (* bcasts re-issued after an abort/timeout *)
  timeouts : int;   (* deadline expiries that forced an inner abort *)
  gave_up : int;    (* payloads dropped after max_attempts (or a crash) *)
  recovered : int;  (* payloads acked on a retry attempt (not the first) *)
}

type retry = {
  driver : t;
  force_abort : node:int -> unit;
      (* adversarial abort: kills the in-flight broadcast but keeps the
         payload pending, so the wrapper retries it *)
  outstanding : unit -> int;
  stats : unit -> retry_stats;
}

let with_retry ?(max_attempts = 4) ?base_backoff ?deadline inner =
  let n = inner.n in
  let deadline =
    match deadline with Some d -> d | None -> inner.bounds.Absmac_intf.f_ack
  in
  let base_backoff =
    match base_backoff with Some b -> max 1 b | None -> max 1 (deadline / 16)
  in
  let pending = Array.make n None in      (* data awaiting an ack *)
  let attempts = Array.make n 0 in
  let started = Array.make n 0 in         (* slot of the latest attempt *)
  let retry_at = Array.make n max_int in  (* max_int = no retry scheduled *)
  let live = ref 0 in                     (* pending payloads *)
  let reissues = ref 0 and timeouts = ref 0 in
  let gave_up = ref 0 and recovered = ref 0 in
  let user = ref Absmac_intf.null_handlers in
  inner.set_handlers
    { Absmac_intf.on_rcv =
        (fun ~node ~payload -> !user.Absmac_intf.on_rcv ~node ~payload);
      on_ack =
        (fun ~node ~payload ->
          if pending.(node) <> None then begin
            if attempts.(node) > 1 then begin
              incr recovered;
              Metrics.incr m_recovered
            end;
            pending.(node) <- None;
            attempts.(node) <- 0;
            retry_at.(node) <- max_int;
            decr live
          end;
          !user.Absmac_intf.on_ack ~node ~payload) };
  (* Exponential backoff from [base_backoff], capped at the deadline. *)
  let backoff k =
    min deadline (base_backoff * (1 lsl min k 20))
  in
  let drop node =
    pending.(node) <- None;
    attempts.(node) <- 0;
    retry_at.(node) <- max_int;
    incr gave_up;
    Metrics.incr m_gave_up;
    decr live
  in
  let schedule_retry node =
    if attempts.(node) >= max_attempts then drop node
    else retry_at.(node) <- inner.now () + backoff (attempts.(node) - 1)
  in
  let bcast ~node ~data =
    let p = inner.bcast ~node ~data in
    if pending.(node) = None then incr live;
    pending.(node) <- Some data;
    attempts.(node) <- 1;
    started.(node) <- inner.now ();
    retry_at.(node) <- max_int;
    p
  in
  let abort ~node =
    (* Intentional abort: forget the payload entirely. *)
    if pending.(node) <> None then begin
      pending.(node) <- None;
      attempts.(node) <- 0;
      retry_at.(node) <- max_int;
      decr live
    end;
    inner.abort ~node
  in
  let step () =
    inner.step ();
    let now = inner.now () in
    for v = 0 to n - 1 do
      match pending.(v) with
      | None -> ()
      | Some data ->
        if not (inner.alive ~node:v) then drop v
        else if inner.busy ~node:v then begin
          (* In flight.  The layer promised an ack within f_ack of the
             attempt; past the deadline, treat the attempt as lost. *)
          if now - started.(v) > deadline then begin
            incr timeouts;
            Metrics.incr m_timeouts;
            inner.abort ~node:v;
            schedule_retry v
          end
        end
        else if retry_at.(v) = max_int then
          (* Not busy, no ack, nothing scheduled: the attempt was aborted
             behind our back (chaos / crash-drop).  Back off and retry. *)
          schedule_retry v
        else if now >= retry_at.(v) then begin
          retry_at.(v) <- max_int;
          attempts.(v) <- attempts.(v) + 1;
          started.(v) <- now;
          incr reissues;
          Metrics.incr m_retries;
          ignore (inner.bcast ~node:v ~data)
        end
    done
  in
  let force_abort ~node = if inner.busy ~node then inner.abort ~node in
  { driver =
      { inner with
        bcast;
        abort;
        step;
        set_handlers = (fun h -> user := h) };
    force_abort;
    outstanding = (fun () -> !live);
    stats =
      (fun () ->
        { reissues = !reissues;
          timeouts = !timeouts;
          gave_up = !gave_up;
          recovered = !recovered }) }
