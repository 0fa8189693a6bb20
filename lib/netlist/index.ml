(* Structural indices over a circuit: who drives each bit, and which cells
   read each bit.  [live] is a view of the maps the circuit maintains
   itself, so it stays current across edits at no cost; [build] rescans
   the whole circuit into a frozen snapshot, the from-scratch oracle the
   validator, lint, topological sort and tests check against. *)

type driver =
  | Driven_by of int * int (* cell id, offset within its output sigspec *)
  | Primary_input
  | Undriven

type snapshot = {
  drivers : driver Bits.Bit_tbl.t;
  readers : (int, unit) Hashtbl.t Bits.Bit_tbl.t; (* bit -> set of cell ids *)
}

type t = Built of snapshot | Live of Circuit.t

let build (c : Circuit.t) =
  let drivers = Bits.Bit_tbl.create 256 in
  let readers = Bits.Bit_tbl.create 256 in
  List.iter
    (fun b -> Bits.Bit_tbl.replace drivers b Primary_input)
    (Circuit.input_bits c);
  Circuit.iter_cells
    (fun id cell ->
      let y = Cell.output cell in
      Array.iteri
        (fun off b ->
          match b with
          | Bits.Of_wire _ -> Bits.Bit_tbl.replace drivers b (Driven_by (id, off))
          | Bits.C0 | Bits.C1 | Bits.Cx ->
            invalid_arg "Index.build: cell output connected to a constant")
        y;
      List.iter
        (fun b ->
          if not (Bits.is_const b) then begin
            let set =
              match Bits.Bit_tbl.find_opt readers b with
              | Some s -> s
              | None ->
                let s = Hashtbl.create 4 in
                Bits.Bit_tbl.replace readers b s;
                s
            in
            Hashtbl.replace set id ()
          end)
        (Cell.input_bits cell))
    c;
  Built { drivers; readers }

let live (c : Circuit.t) = Live c

let driver t (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> Undriven
  | Bits.Of_wire _ -> (
    match t with
    | Built s -> (
      match Bits.Bit_tbl.find_opt s.drivers b with
      | Some d -> d
      | None -> Undriven)
    | Live c -> (
      match Circuit.driver c b with
      | Some (id, off) -> Driven_by (id, off)
      | None -> if Circuit.is_input_bit c b then Primary_input else Undriven))

(* The cell driving bit [b], if any. *)
let driving_cell t b =
  match t with
  | Live c -> Circuit.driver c b
  | Built _ -> (
    match driver t b with
    | Driven_by (id, off) -> Some (id, off)
    | Primary_input | Undriven -> None)

let readers t (b : Bits.bit) =
  match t with
  | Live c -> Circuit.readers c b
  | Built s -> (
    match Bits.Bit_tbl.find_opt s.readers b with
    | Some set -> Hashtbl.fold (fun id () acc -> id :: acc) set []
    | None -> [])

(* Distinct cells reading any bit of [s], ascending. *)
let fanout_cells t (s : Bits.sigspec) =
  Array.fold_left (fun acc b -> List.rev_append (readers t b) acc) [] s
  |> List.sort_uniq compare
