(* The job table as a pure fold over WAL records: one transition type
   (Wal.event), one transition function.  The live queue and recovery
   both go through [apply], so what a restart rebuilds cannot drift
   from what the crashed process held.  A live job's finished cells
   are part of its state, so resume reads them from the same fold. *)

open Sinr_obs

module Ids = Map.Make (Int)

type state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let terminal = function
  | Done | Failed | Cancelled -> true
  | Queued | Running -> false

type job = {
  spec : Spec.t option;
  state : state;
  attempts : int;
  quarantined : bool;
  cells : (int * int * Json.t) list;
}

type t = job Ids.t

let empty = Ids.empty

let unknown =
  { spec = None; state = Queued; attempts = 0; quarantined = false; cells = [] }

let step j = function
  | Wal.Submitted spec when j.spec = None -> { j with spec = Some spec }
  | Wal.Submitted _ -> j
  | _ when terminal j.state -> j
  | Wal.Started _ -> { j with state = Running; attempts = j.attempts + 1 }
  | Wal.Cells cs -> { j with cells = j.cells @ cs }
  | Wal.Yielded -> { j with state = Queued; attempts = max 0 (j.attempts - 1) }
  | Wal.Strikes n -> { j with state = Queued; attempts = max 0 n }
  (* a settled job's results are its table (or nothing): drop its cells *)
  | Wal.Completed -> { j with state = Done; cells = [] }
  | Wal.Cancelled -> { j with state = Cancelled; cells = [] }
  | Wal.Failed _ -> { j with state = Failed; cells = [] }
  | Wal.Quarantined _ -> { j with state = Failed; quarantined = true; cells = [] }

let apply t { Wal.job = id; ev } =
  let j = Option.value (Ids.find_opt id t) ~default:unknown in
  Ids.add id (step j ev) t

let find t id = Ids.find_opt id t
let jobs t = Ids.bindings t

let compact t =
  let live =
    List.concat_map
      (fun (id, j) ->
        match j.spec with
        | Some spec when not (terminal j.state) ->
          List.map
            (fun ev -> { Wal.job = id; ev })
            (List.concat
               [ [ Wal.Submitted spec ];
                 (if j.attempts > 0 then [ Wal.Strikes j.attempts ] else []);
                 (if j.cells <> [] then [ Wal.Cells j.cells ] else []) ])
        | _ -> [])
      (jobs t)
  in
  (* a settled newest job stays as a tombstone, so a restart does not
     hand its id to the next submission *)
  match Ids.max_binding_opt t with
  | Some (id, { spec = Some spec; state; quarantined; _ }) when terminal state ->
    let closing =
      match state with
      | Done -> Wal.Completed
      | Cancelled -> Wal.Cancelled
      | _ -> if quarantined then Wal.Quarantined "" else Wal.Failed ""
    in
    live @ [ { Wal.job = id; ev = Wal.Submitted spec }; { Wal.job = id; ev = closing } ]
  | _ -> live
