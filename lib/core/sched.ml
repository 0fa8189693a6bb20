(* Task-scoped state management for the parallel scheduler.

   One optimization task (a muxtree, a serve job) touches ambient state:
   the Obs metrics/bus/provenance surfaces, the SAT query log, and the
   budget watchdog.  This module bundles their capture protocols into
   one open/close/merge triple so the callers (Sat_elim's parallel path,
   Serve's batch loop) cannot get the ordering wrong:

   - [env] is taken once on the coordinating domain, freezing what the
     tasks inherit: the observability spec and the armed budget.
   - [open_task]/[close_task] run on the executing domain — a pool
     worker, or the coordinator itself when jobs run inline — and
     displace/restore that domain's state around the task, so every
     task sees exactly the same ambient state regardless of schedule.
   - [merge] runs on the coordinator, in task order.  Task-local SAT
     query ids are renumbered onto the global sequence and the same
     offset is applied to the task's provenance and bus references, so
     the merged telemetry is byte-identical to a sequential run's. *)

type env = { e_spec : Obs.Scope.spec; e_budget : Budget.inherited option }

let env () = { e_spec = Obs.Scope.spec (); e_budget = Budget.snapshot () }

type open_scope = {
  os_scope : Obs.Scope.handle;
  os_satlog_prev : Engine.Sat_log.saved;
  os_budget_prev : Budget.saved;
}

let open_task (e : env) : open_scope =
  let os_budget_prev = Budget.save () in
  Budget.adopt e.e_budget;
  let os_satlog_prev = Engine.Sat_log.save_fresh () in
  let os_scope = Obs.Scope.install e.e_spec in
  { os_scope; os_satlog_prev; os_budget_prev }

type capture = {
  c_scope : Obs.Scope.capture;
  c_satlog : Engine.Sat_log.snapshot;
  c_budget : Budget.worker_outcome;
}

let close_task (os : open_scope) : capture =
  let c_scope = Obs.Scope.capture os.os_scope in
  let c_satlog = Engine.Sat_log.capture_and_reset () in
  Engine.Sat_log.restore os.os_satlog_prev;
  let c_budget = Budget.capture_worker () in
  Budget.restore os.os_budget_prev;
  { c_scope; c_satlog; c_budget }

(* Even a raising task must put the executing domain's state back —
   losing the coordinator's SAT log or budget to a worker exception
   would corrupt the run's telemetry beyond the failed task. *)
let with_task (e : env) (f : unit -> 'a) : 'a * capture =
  let os = open_task e in
  match f () with
  | r -> (r, close_task os)
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (close_task os);
    Printexc.raise_with_backtrace exn bt

let merge (c : capture) =
  let offset = Engine.Sat_log.absorb c.c_satlog in
  Obs.Scope.merge (Obs.Scope.map_queries (fun q -> q + offset) c.c_scope);
  Budget.merge_worker c.c_budget
