(* Reference implementation of the paper's Theorem II.1 prune, kept for
   tests only.  The optimizer does not prune: each query's sub-graph is
   built from the cones of exactly its relevant bits, and on such a
   sub-graph this prune keeps every cell that reads a non-constant
   source (the property test in test_smartly.ml checks it).

   Theorem II.1: a signal S can affect a signal T only if their fanin
   cones intersect, i.e. they share a source.  Signals are grouped by
   union-find over shared sources, and only the cells whose output is in
   a group holding a relevant bit are kept.  Grouping by sources rather
   than by plain connectivity keeps two signals that merely share a
   descendant apart. *)

open Netlist

module Uf = struct
  type t = Bits.bit Bits.Bit_tbl.t

  let create () : t = Bits.Bit_tbl.create 64

  let rec find (uf : t) b =
    match Bits.Bit_tbl.find_opt uf b with
    | None -> b
    | Some p ->
      if Bits.bit_equal p b then b
      else begin
        let root = find uf p in
        Bits.Bit_tbl.replace uf b root;
        root
      end

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if not (Bits.bit_equal ra rb) then Bits.Bit_tbl.replace uf ra rb
end

(* The non-constant sources each cell output depends on inside the
   view, bottom-up over its topological order. *)
let supports (c : Circuit.t) (index : Index.t) (ids : int list) :
    Bits.Bit_set.t Bits.Bit_tbl.t =
  let inside = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace inside id ()) ids;
  let sup = Bits.Bit_tbl.create 64 in
  List.iter
    (fun id ->
      let cell = Circuit.cell c id in
      let s =
        List.fold_left
          (fun acc b ->
            if Bits.is_const b then acc
            else
              match Index.driving_cell index b with
              | Some (did, _) when Hashtbl.mem inside did -> (
                match Bits.Bit_tbl.find_opt sup b with
                | Some s -> Bits.Bit_set.union acc s
                | None -> acc)
              | Some _ | None -> Bits.Bit_set.add b acc)
          Bits.Bit_set.empty (Cell.input_bits cell)
      in
      List.iter (fun o -> Bits.Bit_tbl.replace sup o s) (Cell.output_bits cell))
    ids;
  sup

type result = { kept : int list; dropped : int }

(* Keep the cells of [sg]'s view grouped with at least one relevant bit. *)
let prune (c : Circuit.t) (index : Index.t) (sg : Smartly.Subgraph.t)
    ~(relevant : Bits.bit list) : result =
  let ids = (Smartly.Subgraph.view sg).Smartly.Subgraph.cells in
  let sup = supports c index ids in
  let uf = Uf.create () in
  List.iter
    (fun id ->
      let outs = Cell.output_bits (Circuit.cell c id) in
      let s =
        match outs with
        | o :: _ -> Bits.Bit_tbl.find sup o
        | [] -> Bits.Bit_set.empty
      in
      match Bits.Bit_set.choose_opt s with
      | None -> ()
      | Some repr ->
        Bits.Bit_set.iter (fun src -> Uf.union uf repr src) s;
        List.iter (fun o -> Uf.union uf repr o) outs)
    ids;
  let roots =
    List.filter_map
      (fun b -> if Bits.is_const b then None else Some (Uf.find uf b))
      relevant
  in
  let kept =
    List.filter
      (fun id ->
        match Cell.output_bits (Circuit.cell c id) with
        | o :: _ ->
          let r = Uf.find uf o in
          List.exists (Bits.bit_equal r) roots
        | [] -> false)
      ids
  in
  { kept; dropped = List.length ids - List.length kept }
