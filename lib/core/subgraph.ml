(* Sub-graph extraction for the SAT-based redundancy elimination.

   While traversing a muxtree, each encountered control port contributes the
   logic gates within distance [k] of it (transitive fanin, bounded depth).
   Sequential cells are excluded so the sub-graph remains a DAG; their
   outputs act as free sources.

   The paper prunes the accumulated sub-graph with Theorem II.1 before a
   query: a signal S can affect a signal T only if their fanin cones
   share a source, so gates grouped with no known signal nor the target
   are dismissed.  Here each query's sub-graph is built from the cones of
   exactly its relevant bits (the target and the known signals), so every
   gate already shares a source with one of them and the prune would keep
   all of them; the query runs on the whole sub-graph instead. *)

open Netlist

type t = {
  circuit : Circuit.t;
  index : Index.t;
  cells : (int, unit) Hashtbl.t; (* accumulated sub-graph cells *)
  depth_of : (int, int) Hashtbl.t; (* cell -> best (smallest) depth seen *)
}

let create (circuit : Circuit.t) (index : Index.t) =
  { circuit; index; cells = Hashtbl.create 64; depth_of = Hashtbl.create 64 }

(* Add the bounded fanin cone of [bit] (gates within distance [k]). *)
let add_cone t ~k (bit : Bits.bit) =
  let rec up depth b =
    if depth < k then
      match Index.driving_cell t.index b with
      | None -> ()
      | Some (id, _) -> (
        match Circuit.cell_opt t.circuit id with
        | None -> ()
        | Some cell ->
          if Cell.is_combinational cell then begin
            let seen_better =
              match Hashtbl.find_opt t.depth_of id with
              | Some d -> d <= depth
              | None -> false
            in
            if not seen_better then begin
              Hashtbl.replace t.depth_of id depth;
              Hashtbl.replace t.cells id ();
              List.iter (up (depth + 1)) (Cell.input_bits cell)
            end
          end)
  in
  up 0 bit

let cell_ids t = Hashtbl.fold (fun id () acc -> id :: acc) t.cells []

let size t = Hashtbl.length t.cells

(* Sources: bits read inside the sub-graph but not driven inside it. *)
let sources_of_cells (t : t) (ids : int list) : Bits.bit list =
  let driven_inside = Bits.Bit_tbl.create 64 in
  List.iter
    (fun id ->
      List.iter
        (fun b -> Bits.Bit_tbl.replace driven_inside b ())
        (Cell.output_bits (Circuit.cell t.circuit id)))
    ids;
  let srcs = Bits.Bit_tbl.create 64 in
  List.iter
    (fun id ->
      List.iter
        (fun b ->
          if (not (Bits.is_const b)) && not (Bits.Bit_tbl.mem driven_inside b)
          then Bits.Bit_tbl.replace srcs b ())
        (Cell.input_bits (Circuit.cell t.circuit id)))
    ids;
  Bits.Bit_tbl.fold (fun b () acc -> b :: acc) srcs []

(* A self-contained view ready for querying. *)
type view = {
  cells : int list; (* topologically ordered *)
  sources : Bits.bit list;
}

(* Topologically order sub-graph cells (drivers first). *)
let topo_order t (ids : int list) : int list =
  let inside = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace inside id ()) ids;
  let state = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some _ -> ()
    | None ->
      Hashtbl.replace state id ();
      List.iter
        (fun b ->
          match Index.driving_cell t.index b with
          | Some (did, _) when Hashtbl.mem inside did -> visit did
          | Some _ | None -> ())
        (Cell.input_bits (Circuit.cell t.circuit id));
      order := id :: !order
  in
  List.iter visit ids;
  List.rev !order

let view t : view =
  let ids = topo_order t (cell_ids t) in
  { cells = ids; sources = sources_of_cells t ids }
