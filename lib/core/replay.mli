(** Task-level result cache for the sharded muxtree pass.

    The task path ({!Sat_elim.run_tasks}) produces, per muxtree root, a
    deterministic self-contained result — the edit set against the
    pass-start snapshot plus the pass counters — which is a pure
    function of (frozen circuit cells, root id, config).  A warm batch
    (the serve daemon re-optimizing stamped-out design variants, or the
    [jobs_per_sec] bench's warm mode) therefore replays the recorded
    edits on key recurrence instead of re-running the task: the
    recurring tree's entire traversal is skipped.

    Opt-in and coordinator-only: nothing is consulted until {!install}
    puts a store on the current domain, and {!Sat_elim.run_tasks}
    resolves hits before tasks reach the worker pool, so the store
    needs no locking.  Replayed tasks restore their counters and
    engine-stat contributions byte-for-byte but do not re-emit
    provenance/metric events for the skipped work. *)

open Netlist

type entry = {
  e_edits : (int * Cell.t) list;
      (** (cell id, replacement) in application order; cells owned by
          the cache (deep-copied on store and on {!find} application) *)
  e_bypassed : int;
  e_folded : int;
  e_dead : int;
  e_stats : Engine.stats;
}

type t
(** A replay store: bounded FIFO table plus hit/miss counters. *)

val make : ?capacity:int -> unit -> t
(** [capacity] (default 1024) bounds the entry count; 0 disables
    storing. *)

val install : t -> unit
(** Make [t] the current domain's store — consulted by every subsequent
    task-path pass on this domain until {!uninstall}. *)

val uninstall : unit -> unit

val active : unit -> t option
(** The installed store, if any ([None] is the default everywhere). *)

val circuit_digest : Circuit.t -> string
(** Digest of a full serialization of the circuit's cells — the only
    state a task reads.  Distinct circuits serialize distinctly, so
    only a digest collision could replay wrongly; equal circuits always
    digest equally (cell ids ascending, canonical cell encoding). *)

val task_key : digest:string -> cfg_fp:string -> root:int -> string
(** Compose the cache key for one root of a digested circuit under a
    {!Config.fingerprint}. *)

val find : t -> string -> entry option
(** Bumps the hit/miss counters. *)

val store : t -> string -> entry -> unit
(** Insert (first writer wins); evicts FIFO beyond capacity.  The
    entry's edit cells are deep-copied in. *)

val copy_edits : (int * Cell.t) list -> (int * Cell.t) list
(** Deep-copy an edit list's cells — apply replayed edits through this
    so a later in-place rewrite can't corrupt the cache. *)

val to_json : t -> Obs.Json.t
(** [{"hits","misses","evictions","entries","capacity","hit_rate"}] —
    the serve report's [replay] section. *)
