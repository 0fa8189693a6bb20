(* A circuit: a single flat module holding wires and cells.

   Wires and cells carry integer ids.  Cells are stored in a mutable table so
   optimization passes can rewrite them in place.  The circuit also keeps
   its own connectivity: which cell drives each bit and which cells read
   it, plus a hashed set of port wires.  Driver and reader maps are built
   on the first query and then updated by every cell edit, so a pass that
   asks them pays for the bits it touches, not for the whole netlist.  A
   circuit nobody queries (elaboration, set-up, pristine copies) never
   builds them. *)

type wire = {
  wire_id : int;
  wire_name : string;
  width : int;
}

type port_dir = Input | Output

(* A bit has at most one driver except transiently: [Rewire.replace_sig]
   adds a buffer on an output-port bit before its caller removes the old
   driver.  The cell linked last wins, and removing a cell deletes only
   the entries that still name it.  Reader sets are sorted lists: compact,
   ascending for free, and an edit on a bit with F readers costs O(F).
   F is small here: on wb_conmax, riscv, top_cache_axi and ind_00 the
   mean fanout of a read bit is under 2.5 and the largest is 54. *)
type links = {
  drivers : (int * int) Bits.Bit_tbl.t; (* bit -> cell id, output offset *)
  readers : int list Bits.Bit_tbl.t; (* bit -> reading cell ids, ascending *)
}

type t = {
  name : string;
  mutable next_wire_id : int;
  mutable next_cell_id : int;
  wires : (int, wire) Hashtbl.t;
  cells : (int, Cell.t) Hashtbl.t;
  mutable ports : (port_dir * wire) list; (* in declaration order, reversed *)
  port_wires : (int, port_dir) Hashtbl.t; (* wire id -> each port it is *)
  mutable links : links option; (* built on the first driver/reader query *)
}

let create name =
  {
    name;
    next_wire_id = 0;
    next_cell_id = 0;
    wires = Hashtbl.create 64;
    cells = Hashtbl.create 64;
    ports = [];
    port_wires = Hashtbl.create 16;
    links = None;
  }

(* --- wires --- *)

let add_wire t ?name ~width () =
  if width <= 0 then invalid_arg "Circuit.add_wire: width must be positive";
  let id = t.next_wire_id in
  t.next_wire_id <- id + 1;
  let wire_name =
    match name with Some n -> n | None -> Printf.sprintf "w%d" id
  in
  let w = { wire_id = id; wire_name; width } in
  Hashtbl.replace t.wires id w;
  w

let wire t id =
  match Hashtbl.find_opt t.wires id with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Circuit.wire: no wire %d" id)

let wire_opt t id = Hashtbl.find_opt t.wires id

let remove_wire t id = Hashtbl.remove t.wires id

(* The full sigspec covering a wire, LSB first. *)
let sig_of_wire (w : wire) : Bits.sigspec =
  Array.init w.width (fun i -> Bits.Of_wire (w.wire_id, i))

let bit_of_wire (w : wire) : Bits.bit =
  if w.width <> 1 then
    invalid_arg "Circuit.bit_of_wire: wire is not single-bit";
  Bits.Of_wire (w.wire_id, 0)

(* Fresh anonymous wire returned directly as a sigspec. *)
let fresh_sig t ~width = sig_of_wire (add_wire t ~width ())
let fresh_bit t = bit_of_wire (add_wire t ~width:1 ())

(* --- ports --- *)

let add_port t dir w =
  t.ports <- (dir, w) :: t.ports;
  Hashtbl.add t.port_wires w.wire_id dir

let add_input t name ~width =
  let w = add_wire t ~name ~width () in
  add_port t Input w;
  w

let add_output t name ~width =
  let w = add_wire t ~name ~width () in
  add_port t Output w;
  w

(* Mark an existing wire as an output port. *)
let set_output t w = add_port t Output w

let inputs t =
  List.rev t.ports
  |> List.filter_map (function Input, w -> Some w | Output, _ -> None)

let outputs t =
  List.rev t.ports
  |> List.filter_map (function Output, w -> Some w | Input, _ -> None)

let input_bits t = List.concat_map (fun w -> Array.to_list (sig_of_wire w)) (inputs t)
let output_bits t = List.concat_map (fun w -> Array.to_list (sig_of_wire w)) (outputs t)

let is_port_bit t (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> false
  | Bits.Of_wire (wid, _) -> Hashtbl.mem t.port_wires wid

let is_port_dir_bit dir t (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> false
  | Bits.Of_wire (wid, _) -> List.mem dir (Hashtbl.find_all t.port_wires wid)

let is_input_bit = is_port_dir_bit Input
let is_output_bit = is_port_dir_bit Output

(* --- connectivity maintenance --- *)

let rec insert_sorted id = function
  | [] -> [ id ]
  | x :: rest as l ->
    if x = id then l else if x > id then id :: l else x :: insert_sorted id rest

let add_reader l b id =
  let old =
    match Bits.Bit_tbl.find_opt l.readers b with Some r -> r | None -> []
  in
  Bits.Bit_tbl.replace l.readers b (insert_sorted id old)

let remove_reader l b id =
  match Bits.Bit_tbl.find_opt l.readers b with
  | None -> ()
  | Some r -> (
    match List.filter (fun x -> x <> id) r with
    | [] -> Bits.Bit_tbl.remove l.readers b
    | r' -> Bits.Bit_tbl.replace l.readers b r')

let link_cell l id (cell : Cell.t) =
  Array.iteri
    (fun off b ->
      if not (Bits.is_const b) then Bits.Bit_tbl.replace l.drivers b (id, off))
    (Cell.output cell);
  List.iter
    (fun b -> if not (Bits.is_const b) then add_reader l b id)
    (Cell.input_bits cell)

let unlink_cell l id (cell : Cell.t) =
  Array.iter
    (fun b ->
      match Bits.Bit_tbl.find_opt l.drivers b with
      | Some (d, _) when d = id -> Bits.Bit_tbl.remove l.drivers b
      | Some _ | None -> ())
    (Cell.output cell);
  List.iter
    (fun b -> if not (Bits.is_const b) then remove_reader l b id)
    (Cell.input_bits cell)

(* --- cells --- *)

let cell_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.cells [] |> List.sort compare

(* Ascending ids, so a bit that is (wrongly) driven twice resolves to the
   newer cell, as it does when the maps are maintained edit by edit. *)
let links t =
  match t.links with
  | Some l -> l
  | None ->
    let n = Hashtbl.length t.cells in
    let l =
      { drivers = Bits.Bit_tbl.create (2 * n + 16);
        readers = Bits.Bit_tbl.create (2 * n + 16) }
    in
    List.iter (fun id -> link_cell l id (Hashtbl.find t.cells id)) (cell_ids t);
    t.links <- Some l;
    l

let driver t (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> None
  | Bits.Of_wire _ -> Bits.Bit_tbl.find_opt (links t).drivers b

let readers t (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> []
  | Bits.Of_wire _ -> (
    match Bits.Bit_tbl.find_opt (links t).readers b with
    | Some r -> r
    | None -> [])

let drop_links t = t.links <- None

let add_cell t (c : Cell.t) =
  Cell.check_widths c;
  let id = t.next_cell_id in
  t.next_cell_id <- id + 1;
  Hashtbl.replace t.cells id c;
  Option.iter (fun l -> link_cell l id c) t.links;
  id

let cell t id =
  match Hashtbl.find_opt t.cells id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Circuit.cell: no cell %d" id)

let cell_opt t id = Hashtbl.find_opt t.cells id

let replace_cell t id (c : Cell.t) =
  Cell.check_widths c;
  match Hashtbl.find_opt t.cells id with
  | None -> invalid_arg (Printf.sprintf "Circuit.replace_cell: no cell %d" id)
  | Some old ->
    Hashtbl.replace t.cells id c;
    Option.iter
      (fun l ->
        unlink_cell l id old;
        link_cell l id c)
      t.links

let remove_cell t id =
  match Hashtbl.find_opt t.cells id with
  | None -> ()
  | Some old ->
    Hashtbl.remove t.cells id;
    Option.iter (fun l -> unlink_cell l id old) t.links

let iter_cells f t = Hashtbl.iter f t.cells
let fold_cells f t acc = Hashtbl.fold f t.cells acc

let cell_count t = Hashtbl.length t.cells
let wire_count t = Hashtbl.length t.wires

(* --- convenience constructors: build the cell, return its output --- *)

let mk_unary t op a =
  let ywidth =
    match (op : Cell.unary_op) with
    | Not -> Bits.width a
    | Logic_not | Reduce_and | Reduce_or | Reduce_xor | Reduce_bool -> 1
  in
  let y = fresh_sig t ~width:ywidth in
  ignore (add_cell t (Cell.Unary { op; a; y }));
  y

let mk_binary t op a b =
  let ywidth =
    match (op : Cell.binary_op) with
    | And | Or | Xor | Xnor | Add | Sub -> Bits.width a
    | Eq | Ne | Logic_and | Logic_or -> 1
  in
  let y = fresh_sig t ~width:ywidth in
  ignore (add_cell t (Cell.Binary { op; a; b; y }));
  y

let mk_mux t ~a ~b ~s =
  let y = fresh_sig t ~width:(Bits.width a) in
  ignore (add_cell t (Cell.Mux { a; b; s; y }));
  y

let mk_pmux t ~a ~b ~s =
  let y = fresh_sig t ~width:(Bits.width a) in
  ignore (add_cell t (Cell.Pmux { a; b; s; y }));
  y

let mk_dff t ~d =
  let q = fresh_sig t ~width:(Bits.width d) in
  ignore (add_cell t (Cell.Dff { d; q }));
  q

(* Single-bit helpers used heavily by generators and tests. *)
let mk_and t a b = (mk_binary t Cell.And [| a |] [| b |]).(0)
let mk_or t a b = (mk_binary t Cell.Or [| a |] [| b |]).(0)
let mk_xor t a b = (mk_binary t Cell.Xor [| a |] [| b |]).(0)
let mk_not t a = (mk_unary t Cell.Not [| a |]).(0)

let mk_eq_const t (s : Bits.sigspec) v =
  (mk_binary t Cell.Eq s (Bits.of_int ~width:(Bits.width s) v)).(0)

(* Copy the whole circuit (fresh tables, same ids).  The copy starts
   without driver and reader maps: most copies are pristine snapshots or
   worker scratch that never ask for them. *)
let copy t =
  {
    name = t.name;
    next_wire_id = t.next_wire_id;
    next_cell_id = t.next_cell_id;
    wires = Hashtbl.copy t.wires;
    cells = Hashtbl.copy t.cells;
    ports = t.ports;
    port_wires = Hashtbl.copy t.port_wires;
    links = None;
  }
