(** A CDCL SAT solver in the MiniSAT tradition: two-watched-literal
    propagation, first-UIP learning with clause minimization, VSIDS with
    phase saving, Luby restarts, learnt-database reduction, and incremental
    solving under assumptions. *)

type t

type result = Sat | Unsat | Unknown

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable (0-based). *)

val num_vars : t -> int
val num_clauses : t -> int
val num_conflicts : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a problem clause.  Tautologies are dropped; duplicate and falsified
    literals are cleaned.  Safe between incremental [solve] calls (the
    trail is rewound to level 0 first). *)

val solve :
  ?assumptions:Lit.t list ->
  ?budget:int ->
  ?relevant:int list ->
  t ->
  result
(** Solve under the given assumption literals.  [budget] caps the number
    of conflicts spent by {e this call} before giving up with [Unknown] —
    lifetime totals do not count against it, so a long-lived incremental
    solver gets a full budget per query.  After [Sat] the model remains
    readable until the next mutation.  An [Unknown] or assumption-driven
    [Unsat] answer leaves the solver reusable; only a contradiction at
    decision level 0 (the formula itself is unsatisfiable) makes every
    later call answer [Unsat].

    [relevant] restricts decisions to the given variables and stops with
    [Sat] (a {e partial} model — other variables keep their phase-saved
    [model_value]) once all of them are assigned without conflict.  Only
    sound when any such partial assignment extends to a total model: the
    caller must know every clause over the remaining variables is
    independently satisfiable, as {!Session} queries do by pinning
    inactive clause-group guards false.  Incremental sessions use this to
    keep per-query work proportional to the query's cone rather than to
    the accumulated database. *)

val model_value : t -> int -> bool
(** Value of a variable in the last model (phase-saved default when the
    variable was unconstrained). *)

val release_model : t -> unit
(** Rewind the trail after reading a model. *)

val value_var : t -> int -> int
(** Current assignment of a variable: 1 true, 0 false, -1 unassigned. *)

val value_lit : t -> Lit.t -> int
(** Current assignment of a literal: 1 true, 0 false, -1 unassigned. *)

val stats : t -> int * int * int
(** (conflicts, decisions, propagations), cumulative over the solver's
    lifetime. *)

(** Telemetry of one [solve] call, as opposed to the process-lifetime
    totals of {!stats}. *)
type solve_stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  wall_s : float;
}

val last_solve_stats : t -> solve_stats
(** Deltas and wall time of the most recent {!solve} call (all zero before
    the first call). *)
