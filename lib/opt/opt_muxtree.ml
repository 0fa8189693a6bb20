(* The Yosys `opt_muxtree` baseline.

   Muxtrees are traversed from their roots; along each branch the values of
   the control bits taken so far are known.  Two rules are applied, exactly
   the ones Yosys implements (paper Figs. 1 and 2):

   1. a descendant mux whose control bit is already known is bypassed
      (its selected input replaces its output), and
   2. data-port bits equal to a known control bit are replaced by the known
      constant.

   Only *identical* control bits are recognized — no logic inference.  A
   descendant mux is part of the tree (and thus eliminable) only when every
   read of its output comes from a single data-port side of a single mux,
   so rewriting it cannot affect other paths. *)

open Netlist

type side = Side_a | Side_b of int (* pmux part index; Mux's b = part 0 *)

(* A mux is a dedicated child of (parent, side) if every read of every
   output bit is from that one location: a data-port side of one mux.
   Select ports, other cells and output ports all count as foreign
   reads.  Asked of the circuit's live reader map. *)
let dedicated_location (c : Circuit.t) (cell : Cell.t) : (int * side) option
    =
  let y = Cell.output cell in
  if Array.exists (Circuit.is_output_bit c) y then None
  else begin
    let mine = Bits.Bit_tbl.create (Array.length y) in
    Array.iter (fun b -> Bits.Bit_tbl.replace mine b ()) y;
    let reads b = Bits.Bit_tbl.mem mine b in
    let locations = ref [] in
    (* [side i] names the location of bit [i] of the port *)
    let add_reads id side port =
      Array.iteri
        (fun i b -> if reads b then locations := (id, side i) :: !locations)
        port
    in
    let foreign =
      Index.fanout_cells (Index.live c) y
      |> List.exists (fun id ->
             match Circuit.cell c id with
             | Cell.Mux { a; b; s; _ } ->
               add_reads id (fun _ -> Side_a) a;
               add_reads id (fun _ -> Side_b 0) b;
               reads s
             | Cell.Pmux { a; b; s; _ } ->
               let w = Bits.width a in
               add_reads id (fun _ -> Side_a) a;
               add_reads id (fun i -> Side_b (i / w)) b;
               Array.exists reads s
             | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> true)
    in
    if foreign then None
    else
      match List.sort_uniq compare !locations with
      | [ loc ] -> Some loc
      | [] | _ :: _ -> None
  end

type locations = (int, (int * side) option) Hashtbl.t

let is_mux = function
  | Cell.Mux _ | Cell.Pmux _ -> true
  | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> false

(* Every mux's location as the circuit stands now, for walks that edit
   data ports as they go but must judge dedication on the netlist they
   started from. *)
let locations (c : Circuit.t) : locations =
  let t = Hashtbl.create 64 in
  Circuit.iter_cells
    (fun id cell ->
      if is_mux cell then Hashtbl.replace t id (dedicated_location c cell))
    c;
  t

let location (t : locations) id =
  match Hashtbl.find_opt t id with Some l -> l | None -> None

(* Muxes that are no dedicated child, ascending: the tree roots. *)
let roots (t : locations) =
  Hashtbl.fold (fun id l acc -> if l = None then id :: acc else acc) t []
  |> List.sort compare

type ctx = {
  c : Circuit.t;
  locations : locations; (* frozen at the start of the traversal *)
  mutable eliminated : int; (* muxes bypassed *)
  mutable const_bits : int; (* data bits replaced by constants *)
}

(* Resolve a bit under the known control values: constant substitution plus
   bypassing dedicated child muxes with known selects. *)
let rec resolve ctx known ~loc (bit : Bits.bit) : Bits.bit =
  match Bits.Bit_tbl.find_opt known bit with
  | Some true -> Bits.C1
  | Some false -> Bits.C0
  | None -> (
    match Circuit.driver ctx.c bit with
    | None -> bit
    | Some (child_id, off) -> (
      match Circuit.cell_opt ctx.c child_id with
      | None -> bit
      | Some child when not (is_mux child) -> bit
      | Some child -> (
        match location ctx.locations child_id with
        | Some l when l = loc -> (
          match child with
          | Cell.Mux { a; b; s; _ } -> (
            let sv =
              match Bits.Bit_tbl.find_opt known s with
              | Some v -> Some v
              | None -> (
                match s with
                | Bits.C0 -> Some false
                | Bits.C1 -> Some true
                | Bits.Cx | Bits.Of_wire _ -> None)
            in
            match sv with
            | Some v ->
              ctx.eliminated <- ctx.eliminated + 1;
              Obs.Provenance.emit ~kind:Obs.Provenance.Mux_bypassed
                ~cell:child_id ~pass:"opt_muxtree"
                ~mechanism:(Obs.Provenance.Rule "identical_signal") ();
              resolve ctx known ~loc (if v then b.(off) else a.(off))
            | None -> bit)
          | Cell.Pmux _ | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> bit)
        | Some _ | None -> bit)))

(* Substitute one data-port sigspec under [known]. *)
let resolve_port ctx known ~loc (port : Bits.sigspec) : Bits.sigspec * bool =
  let changed = ref false in
  let out =
    Array.map
      (fun bit ->
        let nb = resolve ctx known ~loc bit in
        if not (Bits.bit_equal nb bit) then begin
          changed := true;
          if Bits.is_const nb then begin
            ctx.const_bits <- ctx.const_bits + 1;
            Obs.Provenance.emit ~kind:Obs.Provenance.Const_resolved
              ~cell:(fst loc) ~pass:"opt_muxtree"
              ~mechanism:(Obs.Provenance.Rule "identical_signal") ~bits:1 ()
          end
        end;
        nb)
      port
  in
  out, !changed

let with_fact known (bit : Bits.bit) (v : bool) =
  let known' = Bits.Bit_tbl.copy known in
  (match bit with
  | Bits.Of_wire _ -> Bits.Bit_tbl.replace known' bit v
  | Bits.C0 | Bits.C1 | Bits.Cx -> ());
  known'

(* Children of a port that we should recurse into. *)
let port_children ctx ~loc (port : Bits.sigspec) : int list =
  Array.to_list port
  |> List.filter_map (fun bit ->
         match Circuit.driver ctx.c bit with
         | Some (id, _) -> (
           match Circuit.cell_opt ctx.c id with
           | Some child when is_mux child -> (
             match location ctx.locations id with
             | Some l when l = loc -> Some id
             | Some _ | None -> None)
           | Some _ | None -> None)
         | None -> None)
  |> List.sort_uniq compare

let rec visit ctx visited known (id : int) =
  if not (Hashtbl.mem visited id) then begin
    Hashtbl.replace visited id ();
    match Circuit.cell_opt ctx.c id with
    | None -> ()
    | Some (Cell.Mux { a; b; s; y }) ->
      let known_a = with_fact known s false in
      let known_b = with_fact known s true in
      let a', ca = resolve_port ctx known_a ~loc:(id, Side_a) a in
      let b', cb = resolve_port ctx known_b ~loc:(id, Side_b 0) b in
      if ca || cb then
        Circuit.replace_cell ctx.c id (Cell.Mux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited known_a cid)
        (port_children ctx ~loc:(id, Side_a) a');
      List.iter
        (fun cid -> visit ctx visited known_b cid)
        (port_children ctx ~loc:(id, Side_b 0) b')
    | Some (Cell.Pmux { a; b; s; y }) ->
      let w = Bits.width a in
      let n = Bits.width s in
      (* default branch: every select is 0 *)
      let known_def = ref (Bits.Bit_tbl.copy known) in
      Array.iter (fun sb -> known_def := with_fact !known_def sb false) s;
      let a', ca = resolve_port ctx !known_def ~loc:(id, Side_a) a in
      (* part branches: s_i = 1, s_j = 0 for j < i (priority) *)
      let b' = Array.copy b in
      let changed_b = ref false in
      for i = 0 to n - 1 do
        let kp = ref (Bits.Bit_tbl.copy known) in
        for j = 0 to i - 1 do
          kp := with_fact !kp s.(j) false
        done;
        kp := with_fact !kp s.(i) true;
        let part = Bits.slice b ~off:(i * w) ~len:w in
        let part', cp = resolve_port ctx !kp ~loc:(id, Side_b i) part in
        if cp then begin
          changed_b := true;
          Array.blit part' 0 b' (i * w) w
        end
      done;
      if ca || !changed_b then
        Circuit.replace_cell ctx.c id (Cell.Pmux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited !known_def cid)
        (port_children ctx ~loc:(id, Side_a) a');
      for i = 0 to n - 1 do
        let kp = ref (Bits.Bit_tbl.copy known) in
        for j = 0 to i - 1 do
          kp := with_fact !kp s.(j) false
        done;
        kp := with_fact !kp s.(i) true;
        let part = Bits.slice b' ~off:(i * w) ~len:w in
        List.iter
          (fun cid -> visit ctx visited !kp cid)
          (port_children ctx ~loc:(id, Side_b i) part)
      done
    | Some (Cell.Unary _ | Cell.Binary _ | Cell.Dff _) -> ()
  end

(* One full traversal; returns (eliminated muxes, constant-folded bits). *)
let run_once (c : Circuit.t) : int * int =
  let ctx = { c; locations = locations c; eliminated = 0; const_bits = 0 } in
  let visited = Hashtbl.create 64 in
  let empty_known () = Bits.Bit_tbl.create 8 in
  List.iter (fun id -> visit ctx visited (empty_known ()) id) (roots ctx.locations);
  (* dedicated children never reached from a root (e.g. cyclic weirdness)
     are left untouched *)
  ctx.eliminated, ctx.const_bits

(* Iterate to fixpoint (with expression folding in between, the caller's
   flow takes care of interleaving opt_expr / opt_clean). *)
let m_changes = Obs.Metrics.counter "opt_muxtree.changes"

let run (c : Circuit.t) : int =
  Obs.Trace.with_span "opt_muxtree.run" @@ fun () ->
  let total = ref 0 in
  let rec fix iter =
    if iter < 16 then begin
      let elim, consts = run_once c in
      total := !total + elim + consts;
      if elim + consts > 0 then fix (iter + 1)
    end
  in
  fix 0;
  Obs.Metrics.add m_changes !total;
  !total
