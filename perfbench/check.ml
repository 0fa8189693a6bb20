(* Correctness inside the benchmark, always outside the timed regions.

   Every optimized netlist is compared with a pristine copy of its input:
   a full CEC proof where the circuit is small enough for one (the bench
   harness's limit), 64 rounds of random co-simulation above it.  Which
   method ran is counted, so [equiv.proven_frac] says how much of a run
   was proven rather than sampled. *)

open Netlist

let cec_limit = 9500

type verdict = Proven | Simulated | Failed of string

type tally = {
  mutable proven : int;
  mutable simulated : int;
  mutable failed : int;
  mutable seconds : float;
}

let tally () = { proven = 0; simulated = 0; failed = 0; seconds = 0.0 }

let record t v =
  match v with
  | Proven -> t.proven <- t.proven + 1
  | Simulated -> t.simulated <- t.simulated + 1
  | Failed _ -> t.failed <- t.failed + 1

let checked t = t.proven + t.simulated + t.failed

let simulate ~orig ~opt =
  match Rtl_sim.Vector.random_equiv ~rounds:64 orig opt with
  | None -> Simulated
  | Some (_, out) -> Failed ("simulation differs on output " ^ out)

(* One verdict and its seconds; pure, so two may run on separate domains.
   [orig_area] is the AIG area of [orig], which every caller has already
   mapped for its own report. *)
let verdict ~orig_area ~(orig : Circuit.t) ~(opt : Circuit.t) : verdict * float =
  Layers.timed (fun () ->
      if orig_area <= cec_limit then
        match Equiv.check opt orig with
        | Equiv.Equivalent -> Proven
        | Equiv.Not_equivalent out -> Failed ("CEC differs on output " ^ out)
        | Equiv.Inconclusive -> simulate ~orig ~opt
      else simulate ~orig ~opt)

let count t (v, dt) =
  t.seconds <- t.seconds +. dt;
  record t v;
  v

let equiv t ~orig_area ~orig ~opt = count t (verdict ~orig_area ~orig ~opt)

(* Check two optimized netlists of one input, the second on another
   domain: on the largest designs each check takes seconds, and neither
   is inside a timed region.  [equiv.check_s] then counts wall time. *)
let equiv_pair t ~orig_area ~orig a b =
  let other = Domain.spawn (fun () -> verdict ~orig_area ~orig ~opt:b) in
  let va, da = verdict ~orig_area ~orig ~opt:a in
  let vb, db = Domain.join other in
  record t va;
  record t vb;
  t.seconds <- t.seconds +. Float.max da db;
  (va, vb)

(* --- the committed stand-in areas ---

   At seed offset 0 the workloads optimize exactly the profiles of
   bench/baselines/, so each design's areas must equal the committed
   ones: a disagreement means the two harnesses drifted apart. *)

let baseline_dir = "bench/baselines"

let committed_areas ~section ~case : (int * int, string) result =
  match Perf.Store.load ~dir:baseline_dir ~section with
  | Error e -> Error e
  | Ok doc -> (
    match
      List.find_opt
        (fun (c : Perf.Schema.case) -> c.name = case)
        doc.Perf.Schema.cases
    with
    | None -> Error (Printf.sprintf "%s: no case %s" section case)
    | Some c -> (
      let area n =
        List.find_map
          (fun (m : Perf.Schema.metric) ->
            if m.name = n then Some (truncate m.value)
            else None)
          c.metrics
      in
      match area "smartly_area", area "yosys_area" with
      | Some s, Some y -> Ok (s, y)
      | _ -> Error (Printf.sprintf "%s/%s: no area metrics" section case)))
