(* Tests for the netlist IR: bits, cells, circuit, indices, topo, validate. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bits --- *)

let test_bits_of_to_int () =
  let s = Bits.of_int ~width:8 0xA5 in
  check_int "roundtrip" 0xA5 (Bits.to_int s);
  check_int "width" 8 (Bits.width s);
  check_bool "const" true (Bits.is_fully_const s)

let test_bits_slice_concat () =
  let s = Bits.of_int ~width:8 0xA5 in
  let lo = Bits.slice s ~off:0 ~len:4 in
  let hi = Bits.slice s ~off:4 ~len:4 in
  check_int "lo" 0x5 (Bits.to_int lo);
  check_int "hi" 0xA (Bits.to_int hi);
  check_int "concat" 0xA5 (Bits.to_int (Bits.concat [ lo; hi ]));
  Alcotest.check_raises "slice oob" (Invalid_argument "Bits.slice") (fun () ->
      ignore (Bits.slice s ~off:6 ~len:4))

let test_bits_extend () =
  let s = Bits.of_int ~width:4 0xF in
  check_int "zero extend" 0xF (Bits.to_int (Bits.extend s ~width:8));
  check_int "truncate" 0x3 (Bits.to_int (Bits.extend s ~width:2))

let test_bits_to_int_x () =
  Alcotest.check_raises "x bit" (Invalid_argument "Bits.to_int: non-binary bit")
    (fun () -> ignore (Bits.to_int [| Bits.Cx |]))

(* --- Cells --- *)

let test_cell_widths () =
  let a = Bits.of_int ~width:4 0 and y1 = Bits.of_int ~width:1 0 in
  (* bad: $not with different widths *)
  check_bool "not bad" true
    (match Cell.check_widths (Cell.Unary { op = Cell.Not; a; y = y1 }) with
    | () -> false
    | exception Cell.Width_error _ -> true);
  (* good: logic_not any width -> 1 *)
  Cell.check_widths (Cell.Unary { op = Cell.Logic_not; a; y = y1 });
  (* bad pmux: |b| <> |s|*|a| *)
  check_bool "pmux bad" true
    (match
       Cell.check_widths
         (Cell.Pmux
            {
              a;
              b = Bits.of_int ~width:4 0;
              s = Bits.of_int ~width:2 0;
              y = a;
            })
     with
    | () -> false
    | exception Cell.Width_error _ -> true)

let test_cell_ports () =
  let a = Bits.of_int ~width:2 1 and b = Bits.of_int ~width:2 2 in
  let y = Bits.of_int ~width:2 0 in
  let m = Cell.Mux { a; b; s = Bits.C1; y } in
  check_int "inputs" 5 (List.length (Cell.input_bits m));
  check_int "outputs" 2 (List.length (Cell.output_bits m));
  check_int "controls" 1 (List.length (Cell.control_bits m));
  check_bool "comb" true (Cell.is_combinational m);
  check_bool "dff not comb" false
    (Cell.is_combinational (Cell.Dff { d = a; q = y }))

(* --- Circuit + Index --- *)

let build_simple () =
  (* y = (a & b) | c *)
  let c = Circuit.create "simple" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let cc = Circuit.add_input c "c" ~width:4 in
  let ab =
    Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a) (Circuit.sig_of_wire b)
  in
  let y = Circuit.add_output c "y" ~width:4 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = ab; b = Circuit.sig_of_wire cc;
            y = Circuit.sig_of_wire y }));
  c

let test_circuit_basics () =
  let c = build_simple () in
  check_int "cells" 2 (Circuit.cell_count c);
  check_int "inputs" 3 (List.length (Circuit.inputs c));
  check_int "outputs" 1 (List.length (Circuit.outputs c));
  check_bool "well formed" true (Validate.is_well_formed c)

let test_index () =
  let c = build_simple () in
  let idx = Index.build c in
  let y = List.hd (Circuit.outputs c) in
  let yb = Bits.Of_wire (y.Circuit.wire_id, 0) in
  (match Index.driver idx yb with
  | Index.Driven_by (_, 0) -> ()
  | Index.Driven_by (_, _) | Index.Primary_input | Index.Undriven ->
    Alcotest.fail "expected cell driver at offset 0");
  let a = List.hd (Circuit.inputs c) in
  let ab = Bits.Of_wire (a.Circuit.wire_id, 0) in
  check_bool "input is PI" true (Index.driver idx ab = Index.Primary_input);
  check_int "a read by 1 cell" 1 (List.length (Index.readers idx ab))

let test_topo_and_depth () =
  let c = build_simple () in
  let order = Topo.sort c in
  check_int "both cells ordered" 2 (List.length order);
  check_int "depth" 2 (Topo.logic_depth c);
  check_bool "acyclic" true (Topo.is_acyclic c)

let test_cycle_detection () =
  let c = Circuit.create "cyc" in
  let w1 = Circuit.add_wire c ~width:1 () in
  let w2 = Circuit.add_wire c ~width:1 () in
  let b1 = Circuit.bit_of_wire w1 and b2 = Circuit.bit_of_wire w2 in
  let id1 =
    Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| b1 |]; y = [| b2 |] })
  in
  let id2 =
    Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| b2 |]; y = [| b1 |] })
  in
  check_bool "cyclic" false (Topo.is_acyclic c);
  let cycles =
    List.filter_map
      (function Validate.Cyclic cells -> Some cells | _ -> None)
      (Validate.check c)
  in
  check_int "validate flags one cycle" 1 (List.length cycles);
  (* the witness is the concrete shortest cycle: both inverters *)
  check_int "witness length" 2 (List.length (List.hd cycles));
  check_bool "witness cells" true
    (List.sort compare (List.hd cycles) = List.sort compare [ id1; id2 ])

let test_dff_breaks_cycle () =
  let c = Circuit.create "seq" in
  let w1 = Circuit.add_wire c ~width:1 () in
  let w2 = Circuit.add_wire c ~width:1 () in
  let b1 = Circuit.bit_of_wire w1 and b2 = Circuit.bit_of_wire w2 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = [| b1 |]; y = [| b2 |] }));
  ignore (Circuit.add_cell c (Cell.Dff { d = [| b2 |]; q = [| b1 |] }));
  check_bool "dff breaks loop" true (Topo.is_acyclic c)

let test_validate_multiple_drivers () =
  let c = Circuit.create "md" in
  let a = Circuit.add_input c "a" ~width:1 in
  let y = Circuit.add_wire c ~width:1 () in
  let ab = Circuit.bit_of_wire a and yb = Circuit.bit_of_wire y in
  ignore
    (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| ab |]; y = [| yb |] }));
  ignore
    (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| ab |]; y = [| yb |] }));
  check_bool "flagged" true
    (List.exists
       (function Validate.Multiple_drivers _ -> true | _ -> false)
       (Validate.check c))

let test_validate_dangling () =
  let c = Circuit.create "dangle" in
  let w = Circuit.add_wire c ~width:1 () in
  let y = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary
          { op = Cell.Not; a = [| Circuit.bit_of_wire w |];
            y = [| Circuit.bit_of_wire y |] }));
  check_bool "flagged" true
    (List.exists
       (function Validate.Dangling_wire_bit _ -> true | _ -> false)
       (Validate.check c))

let test_validate_width_violation () =
  let c = Circuit.create "wv" in
  let a = Circuit.add_input c "a" ~width:1 in
  let y = Circuit.add_wire c ~width:2 () in
  let ys = Circuit.sig_of_wire y in
  (* bypass add_cell's width check to seed an ill-widthed cell, the way a
     buggy pass would corrupt the table in place *)
  let id = c.Circuit.next_cell_id in
  c.Circuit.next_cell_id <- id + 1;
  Hashtbl.replace c.Circuit.cells id
    (Cell.Unary { op = Cell.Not; a = [| Circuit.bit_of_wire a |]; y = ys });
  check_bool "flagged" true
    (List.exists
       (function Validate.Width_violation (cid, _) -> cid = id | _ -> false)
       (Validate.check c))

let test_validate_unknown_wire () =
  let c = Circuit.create "uw" in
  let a = Circuit.add_input c "a" ~width:1 in
  let y = Circuit.add_wire c ~width:1 () in
  ignore
    (Circuit.add_cell c
       (Cell.Unary
          { op = Cell.Not; a = [| Circuit.bit_of_wire a |];
            y = [| Circuit.bit_of_wire y |] }));
  Circuit.remove_wire c y.Circuit.wire_id;
  check_bool "flagged" true
    (List.exists
       (function Validate.Unknown_wire wid -> wid = y.Circuit.wire_id | _ -> false)
       (Validate.check c))

let test_cycle_witness_is_shortest () =
  (* a 3-ring w0 -> w1 -> w2 -> w0 plus a shortcut w1 -> w0: the shortest
     cycle is the 2-cell loop through the shortcut, and that is what the
     witness must report regardless of which loop the DFS tripped over *)
  let c = Circuit.create "loops" in
  let w = Array.init 3 (fun _ -> Circuit.add_wire c ~width:1 ()) in
  let b i = Circuit.bit_of_wire w.(i) in
  let inv a y = Cell.Unary { op = Cell.Not; a = [| a |]; y = [| y |] } in
  let a0 = Circuit.add_cell c (inv (b 0) (b 1)) in
  ignore (Circuit.add_cell c (inv (b 1) (b 2)));
  ignore (Circuit.add_cell c (inv (b 2) (b 0)));
  let shortcut = Circuit.add_cell c (inv (b 1) (b 0)) in
  let cycles =
    List.filter_map
      (function Validate.Cyclic cells -> Some cells | _ -> None)
      (Validate.check c)
  in
  check_int "one cycle reported" 1 (List.length cycles);
  check_int "witness is the short loop" 2 (List.length (List.hd cycles));
  check_bool "witness cells" true
    (List.sort compare (List.hd cycles) = List.sort compare [ a0; shortcut ])

(* --- Rewire --- *)

let test_rewire () =
  let c = build_simple () in
  (* replace input c with constant zero in the or cell *)
  let cc = List.nth (Circuit.inputs c) 2 in
  Rewire.replace_sig c
    ~from_:(Circuit.sig_of_wire cc)
    ~to_:(Bits.all_zero ~width:4);
  let ok = ref true in
  Circuit.iter_cells
    (fun _ cell ->
      List.iter
        (fun b ->
          match b with
          | Bits.Of_wire (wid, _) when wid = cc.Circuit.wire_id -> ok := false
          | _ -> ())
        (Cell.input_bits cell))
    c;
  check_bool "no reader of c left" true !ok

(* --- maintained connectivity --- *)

(* Every bit of every wire: the circuit's live maps must agree with a
   fresh [Index.build] and with a rescan of the port lists. *)
let maps_agree (c : Circuit.t) =
  let fresh = Index.build c in
  let port_ids dir =
    List.map (fun w -> w.Circuit.wire_id)
      (match dir with `In -> Circuit.inputs c | `Out -> Circuit.outputs c)
  in
  let ins = port_ids `In and outs = port_ids `Out in
  Hashtbl.fold
    (fun wid (w : Circuit.wire) ok ->
      ok
      && List.for_all
           (fun off ->
             let b = Bits.Of_wire (wid, off) in
             Circuit.driver c b = Index.driving_cell fresh b
             && Circuit.readers c b
                = List.sort compare (Index.readers fresh b)
             && Circuit.is_input_bit c b = List.mem wid ins
             && Circuit.is_output_bit c b = List.mem wid outs
             && Circuit.is_port_bit c b = (List.mem wid ins || List.mem wid outs))
           (List.init w.Circuit.width Fun.id))
    c.Circuit.wires true

(* A random edit sequence that keeps every bit singly driven between
   edits, the state every pass leaves behind.  The maps are forced at a
   random step, so both the lazy build and edit-by-edit upkeep are
   exercised. *)
let random_edits seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let c = Circuit.create "edits" in
  let width = 2 in
  let sources = ref [] in
  let add_source s = sources := s :: !sources in
  add_source (Circuit.sig_of_wire (Circuit.add_input c "i0" ~width));
  add_source (Circuit.sig_of_wire (Circuit.add_input c "i1" ~width));
  add_source (Bits.of_int ~width 1);
  (* output ports not yet driven by any cell *)
  let free_outputs =
    ref [ Circuit.sig_of_wire (Circuit.add_output c "o0" ~width) ]
  in
  let live = ref [] in
  let operand () =
    if Random.State.int rng 4 = 0 then
      Array.init width (fun _ -> (pick !sources).(Random.State.int rng width))
    else pick !sources
  in
  let random_cell y =
    match Random.State.int rng 4 with
    | 0 -> Cell.Unary { op = Cell.Not; a = operand (); y }
    | 1 -> Cell.Binary { op = Cell.And; a = operand (); b = operand (); y }
    | 2 -> Cell.Binary { op = Cell.Xor; a = operand (); b = operand (); y }
    | _ ->
      Cell.Mux { a = operand (); b = operand (); s = (operand ()).(0); y }
  in
  let fresh_output () =
    match !free_outputs with
    | y :: rest when Random.State.bool rng ->
      free_outputs := rest;
      y
    | _ -> Circuit.fresh_sig c ~width
  in
  let force_at = Random.State.int rng 40 in
  for step = 0 to 59 do
    if step = force_at then ignore (Circuit.readers c (pick !sources).(0));
    match Random.State.int rng 7 with
    | 0 | 1 ->
      let y = fresh_output () in
      live := Circuit.add_cell c (random_cell y) :: !live;
      add_source y
    | 2 when !live <> [] ->
      (* new inputs, and now and then a new output wire too *)
      let id = pick !live in
      let y =
        if Random.State.int rng 3 = 0 then begin
          let y = Circuit.fresh_sig c ~width in
          add_source y;
          y
        end
        else Cell.output (Circuit.cell c id)
      in
      Circuit.replace_cell c id (random_cell y)
    | 3 when !live <> [] ->
      let id = pick !live in
      Circuit.remove_cell c id;
      live := List.filter (( <> ) id) !live
    | 4 when !live <> [] ->
      (* what opt_expr does: rewire the readers, then drop the driver *)
      let id = pick !live in
      let from_ = Cell.output (Circuit.cell c id) in
      let before = c.Circuit.next_cell_id in
      Rewire.replace_sig c ~from_ ~to_:(operand ());
      Circuit.remove_cell c id;
      live :=
        List.init (c.Circuit.next_cell_id - before) (fun k -> before + k)
        @ List.filter (( <> ) id) !live
    | 5 ->
      add_source
        (Circuit.sig_of_wire
           (Circuit.add_input c (Printf.sprintf "i%d" step) ~width))
    | 6 ->
      if Random.State.bool rng then
        free_outputs :=
          Circuit.sig_of_wire
            (Circuit.add_output c (Printf.sprintf "o%d" step) ~width)
          :: !free_outputs
      else begin
        match !live with
        | [] -> ()
        | l ->
          let y = Cell.output (Circuit.cell c (pick l)) in
          match y.(0) with
          | Bits.Of_wire (wid, _) -> Circuit.set_output c (Circuit.wire c wid)
          | Bits.C0 | Bits.C1 | Bits.Cx -> ()
      end
    | _ -> ()
  done;
  c

let prop_maps_match_rebuild =
  QCheck.Test.make ~count:300 ~name:"live maps = fresh Index.build"
    QCheck.(int_bound 1_000_000)
    (fun seed -> maps_agree (random_edits seed))

(* replace_sig on an output-port bit adds its buffer while the old
   driver still exists; removing the old driver afterwards must leave
   the buffer as the bit's driver. *)
let test_brief_double_driver () =
  let c = Circuit.create "dd" in
  let a = Circuit.bit_of_wire (Circuit.add_input c "a" ~width:1) in
  let b = Circuit.bit_of_wire (Circuit.add_input c "b" ~width:1) in
  let y = Circuit.bit_of_wire (Circuit.add_output c "y" ~width:1) in
  let old = Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| a |]; y = [| y |] }) in
  check_bool "old drives y" true (Circuit.driver c y = Some (old, 0));
  Rewire.replace_sig c ~from_:[| y |] ~to_:[| b |];
  let buffer =
    match Circuit.driver c y with
    | Some (id, 0) when id <> old -> id
    | Some _ | None -> Alcotest.fail "the port buffer must drive y"
  in
  check_bool "buffer reads b" true (Circuit.readers c b = [ buffer ]);
  Circuit.remove_cell c old;
  check_bool "buffer still drives y" true (Circuit.driver c y = Some (buffer, 0));
  check_bool "a has no reader left" true (Circuit.readers c a = []);
  check_bool "maps agree with a rebuild" true (maps_agree c);
  check_bool "well formed" true (Validate.is_well_formed c)

let test_stats () =
  let c = build_simple () in
  let s = Stats.of_circuit c in
  check_int "total" 2 s.Stats.total;
  check_int "bitwise" 2 s.Stats.bitwise;
  check_int "muxes" 0 s.Stats.muxes

let () =
  Alcotest.run "netlist"
    [
      ( "bits",
        [
          Alcotest.test_case "of/to int" `Quick test_bits_of_to_int;
          Alcotest.test_case "slice/concat" `Quick test_bits_slice_concat;
          Alcotest.test_case "extend" `Quick test_bits_extend;
          Alcotest.test_case "to_int x" `Quick test_bits_to_int_x;
        ] );
      ( "cells",
        [
          Alcotest.test_case "width checks" `Quick test_cell_widths;
          Alcotest.test_case "ports" `Quick test_cell_ports;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "basics" `Quick test_circuit_basics;
          Alcotest.test_case "index" `Quick test_index;
          Alcotest.test_case "topo + depth" `Quick test_topo_and_depth;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "dff breaks cycle" `Quick test_dff_breaks_cycle;
          Alcotest.test_case "multiple drivers" `Quick test_validate_multiple_drivers;
          Alcotest.test_case "dangling bit" `Quick test_validate_dangling;
          Alcotest.test_case "width violation" `Quick test_validate_width_violation;
          Alcotest.test_case "unknown wire" `Quick test_validate_unknown_wire;
          Alcotest.test_case "cycle witness shortest" `Quick
            test_cycle_witness_is_shortest;
          Alcotest.test_case "rewire" `Quick test_rewire;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "links",
        [
          Alcotest.test_case "brief double driver" `Quick
            test_brief_double_driver;
          QCheck_alcotest.to_alcotest prop_maps_match_rebuild;
        ] );
    ]
