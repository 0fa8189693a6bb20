(** Batch optimization daemon: JSONL jobs over a channel pair.

    [smartly serve] wraps this over stdio or a Unix socket.  Each
    [optimize] request loads a circuit (through the caller-supplied
    loader — this library never depends on the HDL frontend), runs the
    smartly flow with per-job {!Engine.Sat_log}/{!Budget} scoping, and
    answers with a [smartly-report-v1] job report.  The {!Replay} task
    cache persists across jobs: recurring muxtree tasks — stamped-out
    variants of one design — replay their recorded edit sets without
    re-running at all.  That cross-job state is the effect the
    [jobs_per_sec] bench section measures.

    Protocol (one JSON object per line, one response per line):
    {v
    {"op":"optimize","id":ID?,"kind":K?,"source":S,
     "jobs":N?,"budget_ms":B?}     -> job report
    {"op":"ping"}                  -> {"op":"ping","status":"ok"}
    {"op":"stats"}                 -> counters + replay-store state
    {"op":"shutdown"}              -> ack, then the loop returns
    v}
    Malformed lines get [{"status":"error",...}] and the daemon keeps
    serving — one bad job must not take down the batch. *)

open Netlist

type load = kind:string -> string -> (Circuit.t, string) result
(** Resolve an [optimize] request's [kind]/[source] pair to a circuit.
    The CLI's loader accepts kind ["profile"] (workload profile name)
    and ["verilog"] (path to a source file). *)

type t
(** A daemon instance: base config, loader, warm replay store, job
    counters. *)

val create : ?cfg:Config.t -> load:load -> unit -> t
(** [cfg] (default {!Config.default}) is the base for every job;
    requests override [jobs] (capped at {!Pool.recommended_jobs}) and
    [pass_budget_ms] per job.
    Jobs always run the task path: when neither the request nor [cfg]
    sets [jobs], the daemon uses [jobs = 1] — the warm replay cache
    only engages there, and its output is schedule-invariant. *)

val handle : t -> string -> Obs.Json.t * bool
(** Process one request line.  Returns the response and whether to keep
    serving ([false] only after [shutdown]).  Exposed for tests. *)

val run : t -> in_channel -> out_channel -> bool
(** Serve requests until EOF or [shutdown], flushing one response line
    per request.  [true] when the client asked for shutdown — the
    socket accept loop's cue to stop accepting (plain EOF just ends the
    connection). *)
