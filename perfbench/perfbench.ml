(* The repository benchmark.

     perfbench run --workload W --seed N --seconds S --trace 0|1
     perfbench selftest

   [run] measures one workload (see Workload) and prints a human-readable
   table followed, as its last line, by one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
   the end-to-end metrics; traced runs (--trace 1) attach the pass-span
   hook and report the per-layer metrics instead.  The exit code is 1
   when any design or job failed its check, or when seed 0 did not
   reproduce the committed areas of bench/baselines/.

   [selftest] checks the benchmark itself (see Selftest). *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let end_to_end (r : Workload.run) (its : Workload.iteration list) setup =
  let med f = Sample.median (List.map f its) in
  let smartly_area = med (fun i -> float_of_int i.Workload.smartly_area) in
  let yosys_area = med (fun i -> float_of_int i.Workload.yosys_area) in
  let jobs = List.concat_map (fun i -> i.Workload.jobs) its in
  let job_total = List.fold_left ( +. ) 0.0 jobs in
  let p50 = Sample.percentile jobs 50.0 and p90 = Sample.percentile jobs 90.0 in
  let peak_words = r.Workload.peak_words in
  ( [
      m "smartly_s" "s" (med (fun i -> i.Workload.smartly_s));
      m "yosys_s" "s" (med (fun i -> i.Workload.yosys_s));
      m "smartly_area" "aig_nodes" smartly_area;
      m "yosys_area" "aig_nodes" yosys_area;
      m "extra_reduction_pct" "%"
        (100.0 *. (1.0 -. Sample.ratio smartly_area yosys_area));
      m "setup_s" "s" (Sample.median setup);
      m "peak_heap_mb" "MB"
        (float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0);
      m "jobs_per_s" "1/s" (Sample.ratio (float_of_int (List.length jobs)) job_total);
      m "job_p50_s" "s" p50.Sample.value;
      m "job_p90_s" "s" p90.Sample.value;
    ],
    Printf.sprintf
      "%d iteration(s); %d job latencies, %d beyond p90; failed_frac %.4f (%d/%d)"
      (List.length its) p90.Sample.n p90.Sample.beyond
      (Sample.ratio (float_of_int r.Workload.failed) (float_of_int r.Workload.attempted))
      r.Workload.failed r.Workload.attempted )

let per_layer (r : Workload.run) =
  let l = Layers.get r.Workload.layers in
  let c = Layers.counter and h = Layers.hist_sum in
  let spans sp = Option.value sp ~default:(Layers.spans ()) in
  let ys = spans r.Workload.yosys_sp and ss = spans r.Workload.smartly_sp in
  let pass sp p = Layers.get sp.Layers.passes p in
  let sat_elim_s = pass ss "sat_elim" in
  let rungs =
    h "engine.sat_query_seconds" +. h "engine.sim_query_seconds"
    +. h "engine.analysis_seconds"
  in
  let kept = c "subgraph.kept" and dropped = c "subgraph.dropped" in
  let memo_hits = c "memo.hits" and memo_misses = c "memo.misses" in
  let replay_hits = l "replay.hits" and replay_misses = l "replay.misses" in
  let checks = r.Workload.checks in
  let traced_wall = ys.Layers.wall +. ss.Layers.wall in
  [
    m "workloads.gen_s" "s" (l "workloads.gen_s");
    m "hdl.elaborate_s" "s" (l "hdl.elaborate_s");
    m "workloads.seqify_s" "s" (l "workloads.seqify_s");
    m "yosys.opt_expr_s" "s" (pass ys "opt_expr");
    m "yosys.opt_merge_s" "s" (pass ys "opt_merge");
    m "yosys.opt_muxtree_s" "s" (pass ys "opt_muxtree");
    m "yosys.opt_clean_s" "s" (pass ys "opt_clean");
    m "yosys.unattributed_frac" "ratio" (Layers.unattributed_frac ys);
    m "smartly.opt_expr_s" "s" (pass ss "opt_expr");
    m "smartly.opt_merge_s" "s" (pass ss "opt_merge");
    m "smartly.sat_elim_s" "s" sat_elim_s;
    m "smartly.restructure_s" "s" (pass ss "restructure");
    m "smartly.opt_clean_s" "s" (pass ss "opt_clean");
    m "smartly.unattributed_frac" "ratio" (Layers.unattributed_frac ss);
    m "driver.iterations" "count" (c "driver.iterations");
    m "engine.rule_hits" "count" (c "engine.rule_hits");
    m "engine.analysis_queries" "count" (c "engine.analysis_queries");
    m "engine.analysis_hits" "count" (c "engine.analysis_hits");
    m "engine.analysis_hit_frac" "ratio"
      (Sample.ratio (c "engine.analysis_hits") (c "engine.analysis_queries"));
    m "engine.sim_queries" "count" (c "engine.sim_queries");
    m "engine.sat_queries" "count" (c "engine.sat_queries");
    m "engine.forgone" "count" (c "engine.forgone");
    m "engine.sat_conflicts" "count" (c "engine.sat_conflicts");
    m "engine.sat_decisions" "count" (c "engine.sat_decisions");
    m "engine.sat_query_s" "s" (h "engine.sat_query_seconds");
    m "engine.sim_query_s" "s" (h "engine.sim_query_seconds");
    m "engine.analysis_s" "s" (h "engine.analysis_seconds");
    m "sat_elim.ladder_frac" "ratio" (Sample.ratio rungs sat_elim_s);
    m "subgraph.kept" "count" kept;
    m "subgraph.dropped" "count" dropped;
    m "subgraph.prune_drop_frac" "ratio" (Sample.ratio dropped (kept +. dropped));
    m "memo.hits" "count" memo_hits;
    m "memo.misses" "count" memo_misses;
    m "memo.hit_frac" "ratio" (Sample.ratio memo_hits (memo_hits +. memo_misses));
    m "sat_session.flushes" "count" (c "sat_session.flushes");
    m "sat_session.cell_encodes" "count" (c "sat_session.cell_encodes");
    m "sat_elim.muxes_bypassed" "count" (c "sat_elim.muxes_bypassed");
    m "sat_elim.data_bits_folded" "count" (c "sat_elim.data_bits_folded");
    m "sat_elim.dead_branches" "count" (c "sat_elim.dead_branches");
    m "restructure.candidates" "count" (c "restructure.candidates");
    m "restructure.rebuilt" "count" (c "restructure.rebuilt");
    m "restructure.rebuilt_frac" "ratio"
      (Sample.ratio (c "restructure.rebuilt") (c "restructure.candidates"));
    m "restructure.eq_removed" "count" (c "restructure.eq_removed");
    m "aigmap_s" "s" (l "aigmap_s");
    m "equiv.check_s" "s" checks.Check.seconds;
    m "equiv.proven_frac" "ratio"
      (Sample.ratio (float_of_int checks.Check.proven)
         (float_of_int (Check.checked checks)));
    m "trace.overhead_frac" "ratio"
      (Sample.ratio (ys.Layers.hook_s +. ss.Layers.hook_s) traced_wall);
    m "serve.load_s" "s" (l "serve.load_s");
    m "serve.repeat_frac" "ratio" (Sample.ratio (l "serve.repeats") (l "serve.jobs"));
    m "replay.hits" "count" replay_hits;
    m "replay.misses" "count" replay_misses;
    m "replay.hit_frac" "ratio"
      (Sample.ratio replay_hits (replay_hits +. replay_misses));
  ]

let result_json ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", num_of_int attempted);
      ("failed", num_of_int failed);
      ( "metrics",
        Obj
          (List.map
             (fun x -> (x.name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ]))
             metrics) );
    ]

let run ~workload ~seed ~seconds ~trace =
  let r = Workload.make_run ~seed ~trace in
  let its, setup = Workload.run r ~workload ~seconds in
  let e2e, summary = end_to_end r its setup in
  let metrics = if trace then per_layer r else e2e in
  Printf.printf "workload %s  seed %d  trace %b\n" workload seed trace;
  List.iter (fun x -> Printf.printf "  %-28s %14.6f %s\n" x.name x.value x.unit_)
    (if trace then e2e @ metrics else e2e);
  List.iteri
    (fun i (it : Workload.iteration) ->
      Printf.printf "  iteration %d: smartly_s %.4f  yosys_s %.4f  jobs %d\n" (i + 1)
        it.smartly_s it.yosys_s (List.length it.jobs))
    its;
  print_endline ("  " ^ summary);
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) (List.rev r.Workload.errors);
  let correct = r.Workload.failed = 0 in
  print_endline
    (Obs.Json.to_string
       (result_json ~correct ~attempted:(max 1 r.Workload.attempted)
          ~failed:r.Workload.failed metrics));
  if correct then 0 else 1

let usage =
  "perfbench run --workload (control|scale|serve_batch) --seed N --seconds S \
   --trace 0|1\nperfbench selftest"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N workload seed offset (0 = committed stand-ins)");
      ("--seconds", Arg.Set_float seconds, "S measure whole iterations for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
  in
  let cmd = ref None in
  Arg.parse specs (fun a -> if !cmd = None then cmd := Some a else raise (Arg.Bad a)) usage;
  let code =
    match !cmd with
    | Some "run" when List.mem !workload Workload.names && (!trace = 0 || !trace = 1)
      ->
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | Some "selftest" -> Selftest.run ()
    | _ ->
      prerr_endline usage;
      2
  in
  exit code
