(** Bounded sub-graph extraction for the redundancy-elimination queries
    (paper Section II).

    Control ports contribute their distance-k fanin cones; sequential cells
    are excluded so the sub-graph stays a DAG.  A query's sub-graph holds
    the cones of exactly its relevant bits, so every gate shares a fanin
    source with one of them: the paper's Theorem II.1 prune would keep
    them all, and queries run on the whole sub-graph. *)

open Netlist

type t

val create : Circuit.t -> Index.t -> t

val add_cone : t -> k:int -> Bits.bit -> unit
(** Add the combinational gates within distance [k] above [bit]. *)

val size : t -> int
(** Accumulated cell count. *)

val cell_ids : t -> int list

(** A topologically ordered view ready for querying. *)
type view = {
  cells : int list;  (** drivers first *)
  sources : Bits.bit list;  (** bits read but not driven inside *)
}

val view : t -> view
