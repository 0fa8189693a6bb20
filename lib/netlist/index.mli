(** Structural indices: which cell drives each bit, which cells read it.

    {!live} views the maps a {!Circuit} maintains across its own edits;
    it is always current and costs nothing to create.  {!build} rescans
    the circuit into a frozen snapshot that ignores later edits — the
    from-scratch oracle for validation, lint, topological sorting and
    tests. *)

type driver =
  | Driven_by of int * int  (** cell id, offset in its output sigspec *)
  | Primary_input
  | Undriven

type t

val build : Circuit.t -> t
(** A frozen snapshot of the circuit as it is now. *)

val live : Circuit.t -> t
(** A view of the circuit's maintained maps, current across edits. *)

val driver : t -> Bits.bit -> driver

val driving_cell : t -> Bits.bit -> (int * int) option
(** [(cell id, output offset)] when a cell drives the bit. *)

val readers : t -> Bits.bit -> int list
(** Cells reading the bit (any input port); ascending on a live view. *)

val fanout_cells : t -> Bits.sigspec -> int list
(** Distinct cells reading any bit of the sigspec, ascending. *)
