(** Tseitin encoding of circuit sub-DAGs into CNF. *)

open Netlist

type t = {
  solver : Solver.t;
  vars : int Bits.Bit_tbl.t;  (** wire bit -> SAT variable *)
  true_lit : Lit.t;  (** a variable asserted true, for constants *)
  mutable clause_log : Lit.t list list;
      (** every added clause, most recent first — the raw material for
          {!to_dimacs} query capture *)
  mutable clause_guard : Lit.t option;
      (** when set, every clause added through the encoders also carries
          this literal.  {!Session} guards each cell's clauses with a
          dedicated [¬g] so a query activates exactly the cells of its
          sub-graph by assuming their [g] literals, keeping the persistent
          database equisatisfiable with a fresh per-query encoding. *)
}

val create : unit -> t
(** A fresh encoder with its own solver. *)

val lit_of_bit : t -> Bits.bit -> Lit.t
(** The SAT literal of a wire bit (allocated on first use); constants map
    to the dedicated true variable. *)

val fresh_lit : t -> Lit.t
(** A fresh positive literal on a new solver variable (auxiliary nodes,
    clause-group guards). *)

val encode_cell : t -> Cell.t -> unit
(** @raise Invalid_argument on sequential cells. *)

val encode_cells : t -> Circuit.t -> int list -> unit

val assume_lit : t -> Bits.bit -> bool -> Lit.t
(** Assumption literal asserting the bit's value. *)

val to_dimacs : t -> extra:Lit.t list list -> Dimacs.cnf
(** The encoded CNF with [extra] clauses appended.  Dumping a query passes
    the assumptions and the queried target polarity as unit clauses, making
    the instance self-contained for [smartly replay]. *)

type query_result =
  | Forced of bool
  | Free
  | Contradictory
      (** both polarities unsat: the assumptions themselves are
          contradictory (a dead path), so no value is "forced" *)
  | Undetermined

(** The last solver call of a query: which target polarity was asserted
    and what the solver answered.  A replay of the clauses plus that unit
    must reproduce [last_result]. *)
type solve_info = { last_target_lit : Lit.t; last_result : Solver.result }

val query_forced :
  ?budget:int ->
  ?relevant:int list ->
  t ->
  assumptions:Lit.t list ->
  target:Bits.bit ->
  query_result
(** Is the target bit forced under the assumptions?  Two incremental
    solver calls: SAT(target=1) and SAT(target=0).  [relevant] is
    passed through to {!Solver.solve} — see the
    soundness requirement on [relevant]; session queries supply the
    active groups' variables from {!Session.prepare}. *)

val query_forced_info :
  ?budget:int ->
  ?relevant:int list ->
  t ->
  assumptions:Lit.t list ->
  target:Bits.bit ->
  query_result * solve_info
(** Like {!query_forced}, also exposing the final solve for capture. *)
