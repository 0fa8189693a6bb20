(** A circuit: one flat module of wires and cells.

    Cells live in a mutable table so optimization passes can rewrite them
    in place.  The circuit keeps its own connectivity — the driver of
    each bit, the cells reading each bit and the set of port wires — up
    to date across {!add_cell}, {!replace_cell}, {!remove_cell} and the
    port functions.  Driver and reader maps are built on the first
    {!driver} or {!readers} query, so circuits nobody queries never pay
    for them; {!copy} leaves them behind.  Edit the [cells] and [ports]
    fields only through these functions, or the maps go stale.
    {!Index.build} remains as the from-scratch oracle. *)

type wire = { wire_id : int; wire_name : string; width : int }

type port_dir = Input | Output

type links
(** The maintained driver and reader maps. *)

type t = {
  name : string;
  mutable next_wire_id : int;
  mutable next_cell_id : int;
  wires : (int, wire) Hashtbl.t;
  cells : (int, Cell.t) Hashtbl.t;
  mutable ports : (port_dir * wire) list;
  port_wires : (int, port_dir) Hashtbl.t;
  mutable links : links option;
}

val create : string -> t

(** {1 Wires} *)

val add_wire : t -> ?name:string -> width:int -> unit -> wire
val wire : t -> int -> wire
val wire_opt : t -> int -> wire option
val remove_wire : t -> int -> unit

val sig_of_wire : wire -> Bits.sigspec
(** Every bit of the wire, LSB first. *)

val bit_of_wire : wire -> Bits.bit
(** The single bit of a 1-bit wire. @raise Invalid_argument otherwise. *)

val fresh_sig : t -> width:int -> Bits.sigspec
(** A fresh anonymous wire, as a sigspec. *)

val fresh_bit : t -> Bits.bit

(** {1 Ports} *)

val add_input : t -> string -> width:int -> wire
val add_output : t -> string -> width:int -> wire
val set_output : t -> wire -> unit
val inputs : t -> wire list
val outputs : t -> wire list
val input_bits : t -> Bits.bit list
val output_bits : t -> Bits.bit list

val is_port_bit : t -> Bits.bit -> bool
(** Does the bit belong to an input or output port wire?  A hash lookup. *)

val is_input_bit : t -> Bits.bit -> bool
val is_output_bit : t -> Bits.bit -> bool

(** {1 Cells} *)

val add_cell : t -> Cell.t -> int
(** Checks widths; returns the new cell id. *)

val cell : t -> int -> Cell.t
val cell_opt : t -> int -> Cell.t option
val replace_cell : t -> int -> Cell.t -> unit
val remove_cell : t -> int -> unit
val iter_cells : (int -> Cell.t -> unit) -> t -> unit
val fold_cells : (int -> Cell.t -> 'a -> 'a) -> t -> 'a -> 'a

val cell_ids : t -> int list
(** All cell ids, ascending. *)

val cell_count : t -> int
val wire_count : t -> int

(** {1 Connectivity} — maintained across edits. *)

val driver : t -> Bits.bit -> (int * int) option
(** [(cell id, output offset)] of the cell driving the bit.  A bit that
    is briefly driven twice resolves to the cell added or replaced last;
    removing a cell drops only the entries that still name it. *)

val readers : t -> Bits.bit -> int list
(** Cells reading the bit on any input port, ascending. *)

val drop_links : t -> unit
(** Free the driver and reader maps; the next query rebuilds them.  The
    flows call this when they finish, so an optimized circuit that is
    kept around weighs what it did before it was optimized. *)

(** {1 Builders} — create the cell and return its fresh output. *)

val mk_unary : t -> Cell.unary_op -> Bits.sigspec -> Bits.sigspec
val mk_binary : t -> Cell.binary_op -> Bits.sigspec -> Bits.sigspec -> Bits.sigspec
val mk_mux : t -> a:Bits.sigspec -> b:Bits.sigspec -> s:Bits.bit -> Bits.sigspec
val mk_pmux : t -> a:Bits.sigspec -> b:Bits.sigspec -> s:Bits.sigspec -> Bits.sigspec
val mk_dff : t -> d:Bits.sigspec -> Bits.sigspec

val mk_and : t -> Bits.bit -> Bits.bit -> Bits.bit
val mk_or : t -> Bits.bit -> Bits.bit -> Bits.bit
val mk_xor : t -> Bits.bit -> Bits.bit -> Bits.bit
val mk_not : t -> Bits.bit -> Bits.bit

val mk_eq_const : t -> Bits.sigspec -> int -> Bits.bit
(** [mk_eq_const c s v] is the bit [s == v]. *)

val copy : t -> t
(** Deep copy (fresh tables; wire/cell ids preserved). *)
