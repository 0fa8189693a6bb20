(** The Yosys [opt_muxtree] baseline.

    Muxtrees are traversed from their roots; along every branch the control
    bits chosen so far are known.  The two Yosys rules apply (paper Figs. 1
    and 2): a descendant mux with an already-known *identical* control bit
    is bypassed, and data bits equal to a known control bit become
    constants.  A descendant is eliminable only when all reads of its
    output come from one data-port side of one mux. *)

open Netlist

type side = Side_a | Side_b of int  (** pmux part index; a Mux's b-side is part 0 *)

val dedicated_location : Circuit.t -> Cell.t -> (int * side) option
(** The unique (mux id, side) reading every output bit of the cell, if the
    cell is dedicated to a single tree location, judged on the circuit's
    live reader map. *)

type locations
(** {!dedicated_location} of every mux, frozen when computed. *)

val locations : Circuit.t -> locations
(** The location of every mux of the circuit as it stands now.  Walks
    that edit data ports as they go judge dedication on this frozen view
    of the netlist they started from. *)

val location : locations -> int -> (int * side) option
(** The frozen location of a mux id; [None] for roots and non-muxes. *)

val roots : locations -> int list
(** Muxes that are not dedicated children, ascending: the tree roots. *)

val run_once : Circuit.t -> int * int
(** One traversal; returns (bypassed mux-bits, constant-folded data bits). *)

val run : Circuit.t -> int
(** Iterate to fixpoint; returns the total number of changes. *)
