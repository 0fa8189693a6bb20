(** Work-stealing domain pool for independent, indexed work items.

    Built for the parallel muxtree scheduler's determinism contract:
    [run] hands back results as a task-indexed array, so callers merge
    in task order and scheduling affects wall-clock only, never output.
    Domains are spawned per call and joined before it returns. *)

val run :
  jobs:int -> init:(unit -> 'w) -> task:('w -> int -> 'r) -> int -> 'r array
(** [run ~jobs ~init ~task n] evaluates [task w i] for every
    [i < n] across [min jobs n (recommended_jobs ())] workers (the
    calling domain included) and returns the results indexed by task.
    Each worker calls [init] once to build its private state [w] —
    per-worker SAT session, circuit copy — before taking tasks from its
    round-robin seeded deque, stealing from siblings when its own runs
    dry.

    [jobs <= 1] (or a one-core machine) runs every task inline on the
    calling domain, no spawn.

    If tasks raise, every remaining task still runs, then the exception
    of the lowest-indexed failing task is re-raised with its original
    backtrace — the same exception a sequential left-to-right execution
    would have surfaced first. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the cap {!run} puts on
    [jobs]. *)
