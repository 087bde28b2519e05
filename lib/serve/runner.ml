(* Checkpointing sweep runner: one [Queue.job] driven through
   [Sweep.run_cursor], every [checkpoint_every] cells committed to the job
   log as one [Cells] record of the cells that chunk finished.

   Resume contract: cells are pure in (param, seed) and cell JSON prints
   byte-stably through a parse/print round trip, so a killed job restored
   from its logged cells produces a final table bit-identical to an
   uninterrupted run — whatever the jobs setting, chunk size or number of
   interruptions.  The cells sit in the log under the job's id, next to
   the job's own spec, so a restore cannot pick up another job's work. *)

open Sinr_expt
open Sinr_obs

let m_cells = Metrics.counter "serve.cells.done"
let m_checkpoints = Metrics.counter "serve.checkpoints"
let m_resumed = Metrics.counter "serve.resume.cells"

let logged_cursor queue (job : Queue.job) =
  let spec = job.Queue.spec in
  let c = Sweep.cursor ~params:spec.Spec.params ~seeds:spec.Spec.seeds in
  Option.iter
    (fun (logged : Job_state.job) ->
      List.iter
        (fun (p, s, cell) -> ignore (Sweep.record c p s cell))
        logged.Job_state.cells)
    (Job_state.find (Queue.log queue) job.Queue.id);
  c

let table_json (reg : Registry.t) (spec : Spec.t) cursor =
  Json.Obj
    [ ("exp", Json.Str spec.Spec.exp);
      ("param_name", Json.Str reg.Registry.param_name);
      ("seeds", Json.List (List.map Json.int spec.Spec.seeds));
      ( "rows",
        Json.List
          (List.map
             (fun (p, cells) ->
               Json.Obj
                 [ ("param", Json.int p); ("cells", Json.List cells) ])
             (Sweep.results cursor)) ) ]

let row_json ~job param cells =
  Json.Obj
    [ ("job_id", Json.int job); ("param", Json.int param);
      ("cells", Json.List cells) ]

let rows ~job (spec : Spec.t) cells =
  let seeds_n = List.length spec.Spec.seeds in
  List.filter_map
    (fun p ->
      match List.filter_map (fun (q, c) -> if q = p then Some c else None) cells with
      | cs when List.length cs = seeds_n -> Some (p, row_json ~job p cs)
      | _ -> None)
    spec.Spec.params

(* Unsupervised settling: success, cancellation and failure are
   terminal; a stopped attempt stays open (Running), which is what a
   process death leaves on the log. *)
let default_settle queue job = function
  | (`Done _ | `Cancelled | `Failed _) as outcome -> Queue.finish queue job outcome
  | `Stopped -> ()

let run_job ?(checkpoint_every = 4) ?(should_stop = fun () -> false)
    ?wrap_cell ?settle ?notify queue (job : Queue.job) =
  let spec = job.Queue.spec in
  let jid = job.Queue.id in
  (* Ambient job identity: every span opened for the rest of this attempt
     — including engine/MAC/physics spans opened on pool worker domains
     inside cells — carries a job_id attribute, so /spans?job=N and
     trace-report --job isolate one job's trace. *)
  Span.with_context [ ("job_id", Json.int jid) ] @@ fun () ->
  let emit typ body =
    match notify with None -> () | Some f -> f ~typ body
  in
  (* Per-job labeled children of the process-global counters: interned
     once per attempt (registry get-or-create), bumped alongside their
     unlabeled parents, scraped scoped at /jobs/:id/metrics. *)
  let jlabels = Metrics.labels [ ("job_id", string_of_int jid) ] in
  let mj_cells = Metrics.counter_with "serve.cells.done" jlabels in
  let mj_checkpoints = Metrics.counter_with "serve.checkpoints" jlabels in
  let mj_resumed = Metrics.counter_with "serve.resume.cells" jlabels in
  let span = Span.start ~name:"serve.job" ~slot:0 () in
  Span.set_attr span "job" (Json.int job.Queue.id);
  Span.set_attr span "exp" (Json.Str spec.Spec.exp);
  Span.set_attr span "cells" (Json.int job.Queue.cells_total);
  let finish_span () =
    Span.set_attr span "state" (Json.Str (Queue.state_name job.Queue.state));
    Span.finish span ~slot:job.Queue.cells_done;
    (* whatever the attempt's cells left open (Approx_progress epochs cut
       off when a cell ends) must not outlive it *)
    Span.abandon "job_id" (Json.int jid)
  in
  let settle = Option.value settle ~default:(default_settle queue job) in
  match Registry.resolve spec with
  | Error msg ->
    (* admission validates, so only a registry change mid-flight lands here *)
    settle (`Failed msg);
    finish_span ()
  | Ok reg -> (
    let cursor = logged_cursor queue job in
    let restored = Sweep.completed cursor in
    job.Queue.restored <- restored;
    if restored > 0 then begin
      Metrics.add m_resumed restored;
      Metrics.add mj_resumed restored;
      Span.annotate span ~slot:restored
        (Span.Text (Printf.sprintf "restored %d cells from the job log" restored))
    end;
    (* Row announcements, each param's once: a watch client can rebuild
       the final table from row events alone. *)
    let announced : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let publish_rows c =
      if notify <> None then
        List.iter
          (fun (p, row) ->
            if not (Hashtbl.mem announced p) then begin
              Hashtbl.replace announced p ();
              emit "row" row
            end)
          (rows ~job:jid spec
             (List.map (fun (p, _s, cell) -> (p, cell)) (Sweep.completed_cells c)))
    in
    let on_chunk c batch =
      let done_now = Sweep.completed c in
      Metrics.add m_cells (List.length batch);
      Metrics.add mj_cells (List.length batch);
      Metrics.incr m_checkpoints;
      Metrics.incr mj_checkpoints;
      Queue.progress queue job ~cells_done:done_now batch;
      emit "checkpoint"
        (Json.Obj
           [ ("job_id", Json.int jid); ("cells_done", Json.int done_now);
             ("cells_total", Json.int job.Queue.cells_total) ]);
      publish_rows c
    in
    let stop () = should_stop () || Atomic.get job.Queue.cancel in
    let cell =
      let base p s = reg.Registry.cell ~param:p ~seed:s in
      let base =
        match wrap_cell with
        | None -> base
        | Some w -> fun p s -> w ~param:p ~seed:s ~cell:base
      in
      match notify with
      | None -> base
      | Some _ ->
        (* cell events fire from pool worker domains; the broker is
           domain-safe and never blocks the worker *)
        fun p s ->
          let cell_ev phase =
            Json.Obj
              [ ("job_id", Json.int jid); ("param", Json.int p);
                ("seed", Json.int s); ("phase", Json.Str phase) ]
          in
          emit "cell" (cell_ev "start");
          let v = base p s in
          emit "cell" (cell_ev "done");
          v
    in
    match
      Sweep.run_cursor ?jobs:spec.Spec.jobs ~chunk:checkpoint_every
        ~should_stop:stop ~on_chunk cursor cell
    with
    | `Complete ->
      publish_rows cursor;
      settle (`Done (table_json reg spec cursor));
      finish_span ()
    | `Stopped ->
      settle (if Atomic.get job.Queue.cancel then `Cancelled else `Stopped);
      finish_span ()
    | exception exn ->
      settle (`Failed (Printexc.to_string exn));
      finish_span ())
