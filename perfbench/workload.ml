(* The three workloads.  All are closed loop with one client: the next
   design or job starts only when the previous one has finished.  Every
   iteration starts from cold process state (empty memo, replay store,
   metrics and SAT log), as a fresh [smartly opt] or a fresh daemon
   would.

   - control: wb_conmax then ind_00 — correlated mux control, the case
     the paper's SAT elimination targets; sat_elim dominates.
   - scale: the largest design's block mix (top_cache_axi at 13 of its
     26 copies); whole-circuit rescans (restructure, opt_expr) take a
     large share of both flows.
   - serve_batch: 104 JSONL jobs through Smartly.Serve, 64 of them
     byte-for-byte repeats, so the cross-job memo and replay caches are
     read as well as written; the pool runs with two workers. *)

open Netlist
module P = Workloads.Profiles

(* What one run collects.  Layer accumulators span the whole run; the
   traced run makes a single iteration, so they describe one pass over
   the workload. *)
type run = {
  seed : int;
  trace : bool;
  layers : Layers.acc;
  yosys_sp : Layers.spans option;
  smartly_sp : Layers.spans option;
  checks : Check.tally;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable peak_words : int;  (** 0 until [mark_peak] *)
}

let make_run ~seed ~trace =
  let sp () = if trace then Some (Layers.spans ()) else None in
  {
    seed;
    trace;
    layers = Layers.acc ();
    yosys_sp = sp ();
    smartly_sp = sp ();
    checks = Check.tally ();
    attempted = 0;
    failed = 0;
    errors = [];
    peak_words = 0;
  }

let fail r msg =
  r.failed <- r.failed + 1;
  r.errors <- msg :: r.errors

(* The end-to-end figures of one iteration. *)
type iteration = {
  smartly_s : float;
  yosys_s : float;
  smartly_area : int;
  yosys_area : int;
  jobs : float list;  (** per-job latency: one design or one request *)
}

(* Collect the heap before each timed region, outside it, so no flow or
   set-up pays for collecting the garbage its predecessor left. *)
let settle () = Gc.compact ()

(* The program's peak major heap, read once: when the first iteration's
   flows or jobs are done and before any correctness check of the run.
   The checks run outside the timed regions, the largest on a second
   domain, and their garbage landed the process peak anywhere between 95
   and 135 MB on one seed of [scale]. *)
let mark_peak r =
  if r.peak_words = 0 then r.peak_words <- (Gc.quick_stat ()).Gc.top_heap_words

let cold_state () =
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  Smartly.Memo.reset ();
  Smartly.Replay.uninstall ()

(* --- frontend: generation, elaboration, register insertion ---

   Seed offset 0 is the committed stand-in.  Any other offset is a
   held-out variant of the same profile: the generated source with every
   net renamed by a seeded bijection, so the variant carries the same
   logic under names and a name order the program has never seen.  The
   block draws and the register staging stay fixed: over four staging
   seeds the control workload's areas moved by up to 13% and its Yosys
   time by up to 30%, more than the benchmark's bounds can absorb. *)

let net = Str.regexp {|\b\(in\|w\|r\|out\)\([0-9]+\)\b|}

let rename offset src =
  if offset = 0 then src
  else
    let mask = Hashtbl.hash offset land 0xfffff in
    Str.global_substitute net
      (fun s ->
        let n = int_of_string (Str.matched_group 2 s) in
        Printf.sprintf "%s%d_v" (Str.matched_group 1 s) (n lxor mask))
      src

(* Profiles.circuit in three timed steps, with its register-insertion
   seed convention; the seed-0 area check catches any drift from it. *)
let frontend (acc : Layers.acc) ~offset (p : P.profile) : Circuit.t =
  let src = Layers.time_into acc "workloads.gen_s" (fun () -> rename offset (P.source p)) in
  let c =
    Layers.time_into acc "hdl.elaborate_s" (fun () ->
        Hdl.Elaborate.elaborate_string ~style:p.P.style src)
  in
  if p.P.register_fraction > 0 then
    Layers.time_into acc "workloads.seqify_s" (fun () ->
        Workloads.Seqify.insert_registers c ~seed:(p.P.seed + 77)
          ~percent:p.P.register_fraction);
  c

let aigmap r c =
  Layers.time_into r.layers "aigmap_s" (fun () -> Aiger.Aigmap.aig_area c)

(* Set-up is repeated and its median reported.  One set-up takes tens of
   milliseconds, and with five repetitions its median still moved by a
   third between runs; fifteen cost under a second.  Only the last
   repetition's product is used, and only its frontend times feed the
   layer accumulators. *)
let setup_reps = 15

let repeated_setup r (f : Layers.acc -> 'a) : 'a * float list =
  let rec go k times =
    let last = k = setup_reps in
    settle ();
    let v, dt = Layers.timed (fun () -> f (if last then r.layers else Layers.acc ())) in
    if last then (v, dt :: times) else go (k + 1) (dt :: times)
  in
  go 1 []

(* --- control and scale: designs through both flows --- *)

type design = {
  profile : P.profile;
  pristine : Circuit.t;
  orig_area : int;
  expect : (int * int) option;  (** committed (smartly, yosys) areas *)
}

(* A profile and the bench/baselines section holding its committed areas,
   if any. *)
let designs_of r (specs : (P.profile * string option) list) =
  let build acc =
    List.map (fun (p, _) -> frontend acc ~offset:r.seed p) specs
  in
  let circuits, times = repeated_setup r build in
  let designs =
    List.map2
      (fun (p, section) c ->
        let expect =
          match section with
          | Some section when r.seed = 0 -> (
            match Check.committed_areas ~section ~case:p.P.name with
            | Ok a -> Some a
            | Error e ->
              fail r ("seed 0 needs the committed areas: " ^ e);
              None)
          | _ -> None
        in
        { profile = p; pristine = c; orig_area = aigmap r c; expect })
      specs circuits
  in
  (designs, times)

let check_design r (d : design) ~smartly_area ~yosys_area ~smartly_c ~yosys_c =
  let name = d.profile.P.name in
  let vs, vy =
    Check.equiv_pair r.checks ~orig_area:d.orig_area ~orig:d.pristine smartly_c
      yosys_c
  in
  let equiv flow = function
    | Check.Failed why -> Some (Printf.sprintf "%s/%s: %s" name flow why)
    | Check.Proven | Check.Simulated -> None
  in
  let area_drift =
    match d.expect with
    | Some (s, y) when (s, y) <> (smartly_area, yosys_area) ->
      Some
        (Printf.sprintf
           "%s: seed-0 areas smartly %d yosys %d differ from committed %d / %d"
           name smartly_area yosys_area s y)
    | _ -> None
  in
  match List.filter_map Fun.id [ equiv "smartly" vs; equiv "yosys" vy; area_drift ] with
  | [] -> ()
  | msgs -> fail r (String.concat "; " msgs)

(* The Yosys flow is an order of magnitude shorter than the smartly one,
   and the shared machine's speed swings by a fifth either way over a
   few seconds: three back-to-back runs of it on [scale] spread by a
   third between processes.  Untraced runs therefore time it
   [yosys_reps] times before the smartly flow and as often after it,
   each on a fresh copy, so its median spans the whole iteration; the
   last copy is the one checked.  Every design's flows run before any
   check of the iteration. *)
let yosys_reps = 2

let flows_iteration r (designs : design list) : iteration =
  cold_state ();
  (* [n] timed runs on fresh copies: the last copy and every time *)
  let yosys_runs (d : design) n =
    let rec go k last times =
      if k = 0 then (last, times)
      else begin
        let yc = Circuit.copy d.pristine in
        settle ();
        let t =
          Layers.run_flow r.yosys_sp (fun ?after_pass () ->
              ignore (Smartly.Driver.yosys ?after_pass yc))
        in
        go (k - 1) (Some yc) (t :: times)
      end
    in
    go n None []
  in
  let flows (d : design) =
    r.attempted <- r.attempted + 1;
    try
      let _, before = yosys_runs d (if r.trace then 0 else yosys_reps) in
      (* a fresh [smartly opt]: the verdict memo lives within this run *)
      Smartly.Memo.reset ();
      Smartly.Engine.Sat_log.reset ();
      let sc = Circuit.copy d.pristine in
      settle ();
      let smartly_s =
        Layers.run_flow r.smartly_sp (fun ?after_pass () ->
            ignore (Smartly.Driver.smartly ?after_pass sc))
      in
      let yc, after = yosys_runs d (if r.trace then 1 else yosys_reps) in
      let yc = Option.get yc in
      let yosys_s = Sample.median (before @ after) in
      let yosys_area = aigmap r yc and smartly_area = aigmap r sc in
      Some (d, sc, yc, (smartly_s, yosys_s, smartly_area, yosys_area))
    with e ->
      fail r (Printf.sprintf "%s raised %s" d.profile.P.name (Printexc.to_string e));
      None
  in
  let ran = List.filter_map flows designs in
  mark_peak r;
  let check (d, sc, yc, ((_, _, smartly_area, yosys_area) as res)) =
    try
      check_design r d ~smartly_area ~yosys_area ~smartly_c:sc ~yosys_c:yc;
      Some res
    with e ->
      fail r (Printf.sprintf "%s check raised %s" d.profile.P.name (Printexc.to_string e));
      None
  in
  let done_ = List.filter_map check ran in
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 done_ in
  let isum f = List.fold_left (fun a x -> a + f x) 0 done_ in
  {
    smartly_s = sum (fun (s, _, _, _) -> s);
    yosys_s = sum (fun (_, y, _, _) -> y);
    smartly_area = isum (fun (_, _, a, _) -> a);
    yosys_area = isum (fun (_, _, _, a) -> a);
    jobs = List.map (fun (s, _, _, _) -> s) done_;
  }

let industrial name =
  List.find (fun p -> p.P.name = name) P.industrial_benchmarks

let control_specs =
  [ (P.wb_conmax, Some "table2"); (industrial "ind_00", Some "industrial") ]

(* top_cache_axi's block mix at 13 of its 26 copies.  The full profile
   takes 60-90 s per flow pair on a shared 2-core machine, too long to run
   22 times per benchmark pass, and at 18 copies its times still spread
   by a third between runs; at 13 the rescans keep a large share
   (opt_expr is 70% of the Yosys flow, restructure and opt_expr 40% of
   the smartly flow).  The full profile's committed areas are checked by
   the self-test instead. *)
let scale_specs =
  [ ({ P.top_cache_axi with P.name = "top_cache_axi_13"; repeat = 13 }, None) ]

(* --- serve_batch: a job stream through the daemon --- *)

(* One job design: a pmux crossbar with correlated control, the shape of
   the bench's jobs_per_sec corpus, small enough for a full CEC proof. *)
let job_profile seed =
  {
    P.name = Printf.sprintf "job_%d" seed;
    seed;
    style = `Pmux;
    repeat = 1;
    mix =
      P.
        [
          Crossbar_port { n_grants = 16; width = 8 };
          Correlated_ifs { depth = 5; width = 8 };
          Correlated_ifs { depth = 4; width = 8 };
        ];
    register_fraction = 5;
  }

(* 40 designs; the first 24 are sent three times and the rest twice, so
   64 of the 104 jobs repeat an earlier one.  Replayed repeats take a
   tenth of a first send's time; with the repeats in the majority the
   median job lies inside their dense cluster, whereas with exactly half
   it sits on the gap between the clusters and jumps by a quarter from
   run to run. *)
let distinct_designs = 40
let thrice = 24
let pool_jobs = 2

(* Both pool workers share a 2-core machine with everything else on it,
   so one batch's times move more than a single-domain flow's: a run
   sends the batch twice, to a fresh daemon each time. *)
let serve_iterations = 2

(* A job names its design and the seed offset of its variant,
   "design:offset"; the seed also picks the order.  A repeated request is
   a byte-for-byte copy of an earlier one. *)
type spec = int * int

let corpus seed : (spec * string) list =
  let specs =
    List.init distinct_designs (fun i ->
        let d = 100_000 + i in
        (d, seed))
  in
  let order =
    Workloads.Rng.shuffle
      (Workloads.Rng.create ~seed:(seed + 4242))
      (specs @ specs @ List.filteri (fun i _ -> i < thrice) specs)
  in
  List.mapi
    (fun i ((d, st) as spec) ->
      ( spec,
        Obs.Json.to_string
          Obs.Json.(
            Obj
              [
                ("op", Str "optimize");
                ("id", Str (Printf.sprintf "j%03d" i));
                ("kind", Str "design");
                ("source", Str (Printf.sprintf "%d:%d" d st));
                ("jobs", num_of_int pool_jobs);
              ]) ))
    order

let build_job acc ((d, offset) : spec) = frontend acc ~offset (job_profile d)

let serve_iteration r : iteration * float list =
  cold_state ();
  (* the loader generates and elaborates each job inside the job, as the
     CLI's profile loader does; [handed] keeps the circuit Serve then
     optimizes in place *)
  let handed = ref None in
  let load ~kind source =
    match kind, List.map int_of_string_opt (String.split_on_char ':' source) with
    | "design", [ Some d; Some offset ] ->
      let c =
        Layers.time_into r.layers "serve.load_s" (fun () ->
            build_job r.layers (d, offset))
      in
      handed := Some c;
      Ok c
    | _ -> Error (Printf.sprintf "unknown job %s:%s" kind source)
  in
  (* Set-up: the daemon, the request stream, and the client's pristine
     copy of every design it will send, kept to check the answers. *)
  let (daemon, jobs, pristine), times =
    repeated_setup r (fun _ ->
        let jobs = corpus r.seed in
        let pristine = Hashtbl.create distinct_designs in
        List.iter
          (fun (spec, _) ->
            if not (Hashtbl.mem pristine spec) then begin
              let c = build_job (Layers.acc ()) spec in
              Hashtbl.replace pristine spec (c, Aiger.Aigmap.aig_area c)
            end)
          jobs;
        (Smartly.Serve.create ~load (), jobs, pristine))
  in
  (* The client's reference: the Yosys baseline of every job's input.
     Untraced runs time it before the batch and again after it, and take
     the mean, so the figure spans the batch as the jobs' figures do; a
     single block of it is a second long and spread by a fifth between
     runs.  The traced run times it once, before the counters are reset
     for the daemon. *)
  let reference () =
    settle ();
    List.fold_left
      (fun (secs, area) (spec, _) ->
        let yc = Circuit.copy (fst (Hashtbl.find pristine spec)) in
        let dt =
          Layers.run_flow r.yosys_sp (fun ?after_pass () ->
              ignore (Smartly.Driver.yosys ?after_pass yc))
        in
        (secs +. dt, area + aigmap r yc))
      (0.0, 0) jobs
  in
  let yosys_before, yosys_area = reference () in
  Obs.Metrics.reset ();
  let outputs = Hashtbl.create distinct_designs in
  let smartly_s = ref 0.0 and smartly_area = ref 0 in
  settle ();
  let repeats = ref 0 in
  (* Closed loop: send a job and wait for its answer, then send the next.
     The answers are checked after the batch, outside every latency. *)
  let run_job (spec, line) =
    r.attempted <- r.attempted + 1;
    handed := None;
    let response, latency =
      Layers.timed (fun () ->
          match Smartly.Serve.handle daemon line with
          | resp, _ -> Ok resp
          | exception e -> Error (Printexc.to_string e))
    in
    ((spec, response, !handed), latency)
  in
  let check_job (spec, response, handed) =
    let name = Printf.sprintf "job %d:%d" (fst spec) (snd spec) in
    let orig, orig_area = Hashtbl.find pristine spec in
    match response, handed with
    | Error e, _ -> fail r (name ^ " raised " ^ e)
    | Ok resp, _ when Obs.Json.mem_str "status" resp <> Some "ok" ->
      fail r (name ^ ": " ^ Obs.Json.to_string resp)
    | Ok _, None -> fail r (name ^ ": the loader was never called")
    | Ok resp, Some c -> (
      let after =
        Option.bind (Obs.Json.member "area" resp) (Obs.Json.mem_int "after")
      in
      let area = aigmap r c in
      smartly_area := !smartly_area + area;
      smartly_s :=
        !smartly_s +. Option.value (Obs.Json.mem_num "wall_seconds" resp) ~default:0.0;
      let digest = Smartly.Replay.circuit_digest c in
      (* a repeat whose output is identical to its already-checked first
         answer inherits that verdict *)
      let verdict =
        match Hashtbl.find_opt outputs spec with
        | Some (d, v) when d = digest ->
          incr repeats;
          Check.record r.checks v;
          v
        | prev ->
          if prev <> None then incr repeats;
          let v = Check.equiv r.checks ~orig_area ~orig ~opt:c in
          Hashtbl.replace outputs spec (digest, v);
          v
      in
      match verdict, after with
      | Check.Failed why, _ -> fail r (name ^ ": " ^ why)
      | _, Some a when a = area -> ()
      | _, _ ->
        fail r (Printf.sprintf "%s: reported area differs from the netlist's %d" name area))
  in
  let answers, latencies = List.split (List.map run_job jobs) in
  mark_peak r;
  let yosys_s =
    if r.trace then yosys_before else (yosys_before +. fst (reference ())) /. 2.0
  in
  List.iter check_job answers;
  let stats, _ = Smartly.Serve.handle daemon {|{"op":"stats"}|} in
  let replay k =
    Option.bind (Obs.Json.member "replay" stats) (Obs.Json.mem_num k)
    |> Option.value ~default:0.0
  in
  Layers.add r.layers "replay.hits" (replay "hits");
  Layers.add r.layers "replay.misses" (replay "misses");
  Layers.add r.layers "serve.repeats" (float_of_int !repeats);
  Layers.add r.layers "serve.jobs" (float_of_int (List.length jobs));
  Smartly.Replay.uninstall ();
  ( {
      smartly_s = !smartly_s;
      yosys_s;
      smartly_area = !smartly_area;
      yosys_area;
      jobs = latencies;
    },
    times )

(* --- dispatch --- *)

let names = [ "control"; "scale"; "serve_batch" ]

(* Run whole iterations until [seconds] have been spent in them and at
   least [min] were made (exactly one when traced).  Returns the
   iterations and the set-up times. *)
let run r ~workload ~seconds : iteration list * float list =
  let deadline = Obs.Clock.now () +. seconds in
  let more ~min its =
    (not r.trace) && (List.length its < min || Obs.Clock.now () < deadline)
  in
  match workload with
  | "control" | "scale" ->
    let designs, setup =
      designs_of r (if workload = "control" then control_specs else scale_specs)
    in
    let rec loop its =
      let its = flows_iteration r designs :: its in
      if more ~min:1 its then loop its else List.rev its
    in
    (loop [], setup)
  | "serve_batch" ->
    let rec loop its setup =
      let it, times = serve_iteration r in
      let its = it :: its and setup = times @ setup in
      if more ~min:serve_iterations its then loop its setup
      else (List.rev its, setup)
    in
    loop [] []
  | w -> invalid_arg ("unknown workload " ^ w)
