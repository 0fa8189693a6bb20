(* Self-tests of the benchmark's own machinery (perfbench selftest):

   - the percentile helper reports the sample count it used;
   - pass spans plus the unattributed remainder add up to the flow's wall
     time, with one span per pass per iteration;
   - a deliberately corrupted netlist is counted as a failure;
   - seed offset 0 reproduces the committed areas of bench/baselines/
     for wb_conmax, ind_00 and the full top_cache_axi (about two
     minutes), and a wrong committed figure fails.

   Exit code 0 when every check holds. *)

open Netlist
module P = Workloads.Profiles

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let percentile () =
  let xs = List.init 20 (fun i -> float_of_int (i + 1)) in
  let p90 = Sample.percentile xs 90.0 and p50 = Sample.percentile xs 50.0 in
  expect "percentile reports its sample count" (p90.Sample.n = 20 && p50.Sample.n = 20);
  expect "percentile counts the samples beyond it" (p90.Sample.beyond = 2);
  expect "p50 is the median" (p50.Sample.value = Sample.median xs);
  expect "empty sample set reports n = 0" ((Sample.percentile [] 90.0).Sample.n = 0)

let spans () =
  let c0 = P.circuit P.mux_chain in
  let check flow passes run =
    let sp = Layers.spans () in
    let c = Circuit.copy c0 in
    let iterations = ref 0 in
    let wall =
      Layers.run_flow (Some sp) (fun ?after_pass () -> iterations := run ?after_pass c)
    in
    let frac = Layers.unattributed_frac sp in
    let sum = Layers.attributed sp +. (frac *. sp.Layers.wall) in
    expect
      (Printf.sprintf "%s: one span per pass per iteration (%d)" flow sp.Layers.count)
      (sp.Layers.count = passes * !iterations);
    expect
      (Printf.sprintf "%s: spans + unattributed = wall (%.6f s)" flow wall)
      (Float.abs (sum -. wall) <= 1e-9 *. Float.max 1.0 wall && sp.Layers.wall = wall);
    expect
      (Printf.sprintf "%s: unattributed share %.4f within [0, 0.05]" flow frac)
      (frac >= 0.0 && frac <= 0.05)
  in
  check "yosys" 4 (fun ?after_pass c ->
      (Smartly.Driver.yosys ?after_pass c).Rtl_opt.Flow.iterations);
  check "smartly" 5 (fun ?after_pass c ->
      (Smartly.Driver.smartly ?after_pass c).Smartly.Driver.iterations)

(* Complement the cell driving the first primary-output bit: the output
   function changes, so any sound check must reject the netlist. *)
let corrupt (c : Circuit.t) =
  let outs = Circuit.output_bits c in
  let drives cell =
    Array.exists (fun b -> List.exists (Bits.bit_equal b) outs) (Cell.output cell)
  in
  let id, cell =
    match Circuit.fold_cells (fun id cell acc ->
        match acc with None when drives cell -> Some (id, cell) | _ -> acc) c None with
    | Some v -> v
    | None -> failwith "no cell drives a primary output"
  in
  let y = Cell.output cell in
  let ny = Circuit.fresh_sig c ~width:(Bits.width y) in
  let redirected =
    match cell with
    | Cell.Unary u -> Cell.Unary { u with y = ny }
    | Cell.Binary b -> Cell.Binary { b with y = ny }
    | Cell.Mux x -> Cell.Mux { x with y = ny }
    | Cell.Pmux x -> Cell.Pmux { x with y = ny }
    | Cell.Dff d -> Cell.Dff { d with q = ny }
  in
  Circuit.replace_cell c id redirected;
  ignore (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = ny; y }))

let corrupted () =
  let c = P.circuit P.mux_chain in
  let d =
    { Workload.profile = P.mux_chain; pristine = c;
      orig_area = Aiger.Aigmap.aig_area c; expect = None }
  in
  let judge sc yc =
    let r = Workload.make_run ~seed:0 ~trace:false in
    Workload.check_design r d ~smartly_area:0 ~yosys_area:0 ~smartly_c:sc ~yosys_c:yc;
    r.Workload.failed
  in
  let sc = Circuit.copy c and yc = Circuit.copy c in
  ignore (Smartly.Driver.smartly sc);
  ignore (Smartly.Driver.yosys yc);
  expect "an intact netlist passes the check" (judge sc yc = 0);
  corrupt sc;
  expect "a corrupted netlist counts as failed" (judge sc yc = 1)

let seed_zero () =
  let r = Workload.make_run ~seed:0 ~trace:false in
  let designs, _ =
    Workload.designs_of r
      (Workload.control_specs @ [ (P.top_cache_axi, Some "table2") ])
  in
  let it = Workload.flows_iteration r designs in
  expect
    (Printf.sprintf
       "seed 0 reproduces the committed areas of wb_conmax, ind_00 and \
        top_cache_axi (%d / %d)"
       it.Workload.smartly_area it.Workload.yosys_area)
    (r.Workload.failed = 0 && List.for_all (fun d -> d.Workload.expect <> None) designs);
  (* the same check against a wrong committed figure must fail *)
  let d = List.hd designs in
  let wrong = Option.map (fun (s, y) -> (s + 1, y)) d.Workload.expect in
  let r' = Workload.make_run ~seed:0 ~trace:false in
  ignore (Workload.flows_iteration r' [ { d with Workload.expect = wrong } ]);
  expect "a drifted seed-0 area counts as failed" (r'.Workload.failed = 1)

let run () =
  percentile ();
  spans ();
  corrupted ();
  seed_zero ();
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
