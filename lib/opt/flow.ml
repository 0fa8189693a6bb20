(* Baseline optimization flow: the Yosys `opt` loop with `opt_muxtree`.
   Repeats expression folding, muxtree pruning and dead-code removal until
   nothing changes. *)

type report = {
  iterations : int;
  expr_folded : int;
  muxtree_changes : int;
  cells_removed : int;
}

let pp_report ppf r =
  Fmt.pf ppf "iters=%d expr=%d muxtree=%d removed=%d" r.iterations
    r.expr_folded r.muxtree_changes r.cells_removed

let baseline ?(after_pass = fun _ _ -> ()) (c : Netlist.Circuit.t) : report =
  Obs.Trace.with_span "flow.baseline" @@ fun () ->
  let expr_folded = ref 0 in
  let muxtree_changes = ref 0 in
  let cells_removed = ref 0 in
  (* Same pass-boundary events as Driver.smartly (no budgets here: the
     baseline loop has no SAT ladder to truncate), so ledgered baseline
     runs render in [smartly report] too. *)
  let run_pass ~iter name f =
    Obs.Event.emit ~name
      ~data:(Obs.Json.Obj [ "iteration", Obs.Json.num_of_int iter ])
      Obs.Event.Pass_start;
    let t0 = Obs.Clock.now () in
    let r = f () in
    let seconds = Obs.Clock.now () -. t0 in
    after_pass name c;
    Obs.Event.emit ~name
      ~data:
        (Obs.Json.Obj
           [
             "iteration", Obs.Json.num_of_int iter;
             "seconds", Obs.Json.Num seconds;
             "cells", Obs.Json.num_of_int (Netlist.Circuit.cell_count c);
           ])
      Obs.Event.Pass_end;
    r
  in
  let rec loop iter =
    if iter >= 16 then iter
    else begin
      let e = run_pass ~iter "opt_expr" (fun () -> Opt_expr.run c) in
      let g = run_pass ~iter "opt_merge" (fun () -> Opt_merge.run c) in
      let m = run_pass ~iter "opt_muxtree" (fun () -> Opt_muxtree.run c) in
      let r = run_pass ~iter "opt_clean" (fun () -> Opt_clean.run c) in
      expr_folded := !expr_folded + e + g;
      muxtree_changes := !muxtree_changes + m;
      cells_removed := !cells_removed + r;
      if e + g + m + r > 0 then loop (iter + 1) else iter + 1
    end
  in
  let iterations = loop 0 in
  Netlist.Circuit.drop_links c;
  {
    iterations;
    expr_folded = !expr_folded;
    muxtree_changes = !muxtree_changes;
    cells_removed = !cells_removed;
  }
