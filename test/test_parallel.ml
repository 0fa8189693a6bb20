(* Parallel-scheduler end-to-end determinism: the full smartly flow must
   produce a byte-identical netlist, identical areas and an identical
   provenance event multiset for every --jobs value, and the task-replay
   cache must reproduce the uncached result exactly. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let profile name =
  match Workloads.Profiles.by_name name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

(* One cold flow run: fresh telemetry, no replay store.
   Returns (netlist digest, area, sorted provenance lines). *)
let run_flow ?(jobs = None) ?(replay = false) c0 =
  let c = Circuit.copy c0 in
  let cfg = { Smartly.Config.default with Smartly.Config.jobs } in
  Smartly.Engine.Sat_log.reset ();
  Smartly.Budget.reset ();
  if not replay then Smartly.Replay.uninstall ();
  let sink = Obs.Provenance.make_sink () in
  Obs.Provenance.install sink;
  Fun.protect ~finally:Obs.Provenance.uninstall (fun () ->
      ignore (Smartly.Driver.smartly ~cfg c));
  let prov =
    Obs.Provenance.to_jsonl_string sink
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.sort compare
  in
  (Smartly.Replay.circuit_digest c, Aiger.Aigmap.aig_area c, prov)

let corpus = lazy (Workloads.Profiles.circuit (profile "mux_chain"))

let test_jobs_determinism () =
  let c0 = Lazy.force corpus in
  let d1, a1, p1 = run_flow ~jobs:(Some 1) c0 in
  check_bool "flow did optimize" true (a1 < Aiger.Aigmap.aig_area c0);
  List.iter
    (fun n ->
      let dn, an, pn = run_flow ~jobs:(Some n) c0 in
      check_string (Printf.sprintf "netlist digest jobs=%d" n) d1 dn;
      check_int (Printf.sprintf "area jobs=%d" n) a1 an;
      check_int
        (Printf.sprintf "provenance count jobs=%d" n)
        (List.length p1) (List.length pn);
      check_bool
        (Printf.sprintf "provenance multiset jobs=%d" n)
        true (p1 = pn))
    [ 2; 8 ]

(* The task path's frozen-snapshot semantics differ from the legacy
   in-place walk by design; areas may legitimately differ.  What must
   hold is that the task path agrees with itself for every worker
   count — covered above — and that both reach a valid netlist. *)
let test_task_path_vs_legacy_valid () =
  let c0 = Lazy.force corpus in
  let c = Circuit.copy c0 in
  Smartly.Replay.uninstall ();
  ignore (Smartly.Driver.smartly c);
  check_bool "legacy optimizes" true
    (Aiger.Aigmap.aig_area c < Aiger.Aigmap.aig_area c0)

(* Replay cache: a second identical job replays (hits > 0) and still
   produces the byte-identical netlist and provenance-free counters
   consistent with the cold run. *)
let test_replay_reproduces () =
  let c0 = Lazy.force corpus in
  let d_cold, a_cold, _ = run_flow ~jobs:(Some 2) c0 in
  let store = Smartly.Replay.make () in
  Smartly.Replay.install store;
  Fun.protect ~finally:Smartly.Replay.uninstall (fun () ->
      let d1, a1, _ = run_flow ~jobs:(Some 2) ~replay:true c0 in
      let d2, a2, _ = run_flow ~jobs:(Some 2) ~replay:true c0 in
      check_string "warm job 1 digest" d_cold d1;
      check_string "warm job 2 digest" d_cold d2;
      check_int "warm job 1 area" a_cold a1;
      check_int "warm job 2 area" a_cold a2;
      match Smartly.Replay.to_json store with
      | Obs.Json.Obj fields ->
        let num k =
          match List.assoc k fields with
          | Obs.Json.Num f -> int_of_float f
          | _ -> Alcotest.failf "field %s not a number" k
        in
        check_bool "job 2 replayed tasks" true (num "hits" > 0);
        check_bool "job 1 filled the cache" true (num "entries" > 0)
      | _ -> Alcotest.fail "replay stats not an object")

(* The digest is a function of the cells: copies agree, any rewrite
   disagrees. *)
let test_digest_sensitivity () =
  let c0 = Lazy.force corpus in
  let c1 = Circuit.copy c0 in
  check_string "copy digests equal"
    (Smartly.Replay.circuit_digest c0)
    (Smartly.Replay.circuit_digest c1);
  let id = List.hd (Circuit.cell_ids c1) in
  let cell = Circuit.cell c1 id in
  Circuit.remove_cell c1 id;
  check_bool "removal changes digest" true
    (Smartly.Replay.circuit_digest c0 <> Smartly.Replay.circuit_digest c1);
  ignore (Circuit.add_cell c1 cell)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "jobs 1/2/8 identical" `Quick
            test_jobs_determinism;
          Alcotest.test_case "legacy path valid" `Quick
            test_task_path_vs_legacy_valid;
        ] );
      ( "replay",
        [
          Alcotest.test_case "reproduces cold result" `Quick
            test_replay_reproduces;
          Alcotest.test_case "digest sensitivity" `Quick
            test_digest_sensitivity;
        ] );
    ]
