(* Golden netlists: the digest and AIG area that [Driver.smartly] leaves
   on four fast profiles, recorded once and compared exactly.  Each
   profile is run on the legacy in-place walk ([Config.default]) and on
   the sharded task path with one and two workers.  Any change to the
   ladder, the sub-graph or the schedulers that moves a single cell of
   the optimized netlist fails here, whatever the counters say.  The
   same four profiles through [Driver.yosys] pin the baseline flow, the
   byte-identity oracle for [opt_expr], [opt_merge], [opt_muxtree] and
   [Rewire.replace_sig] — recorded before those passes moved onto the
   circuit's maintained connectivity maps. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* profile, netlist digest, AIG area.  The two paths may reach
   different netlists by design; on these four they agree, so one row
   covers all three runs. *)
let golden =
  [
    ("mux_chain", "b44cf97046883ca3a24d653a20f1fa76", 554);
    ("riscv", "29ffd8ecb1ab72a4224ba89a33d59a7d", 31002);
    ("ac97_ctrl", "88bad1d25dc9c2e6cd5ded626e5a11b9", 6135);
    ("usb_funct", "3268733927df29bb332f3098fda9cf1e", 7553);
  ]

(* profile, netlist digest, AIG area that [Driver.yosys] leaves: the
   baseline flow's own oracle for [opt_expr], [opt_merge] and
   [Rewire.replace_sig]. *)
let golden_yosys =
  [
    ("mux_chain", "0605861046a9186b2c2602b036111eb3", 720);
    ("riscv", "32429f320d6f46562d214a8bcf0485f6", 32292);
    ("ac97_ctrl", "239b0ad620312550ad5ec5129218ce9b", 6572);
    ("usb_funct", "96f9c88851371bbfab2e552de344100b", 7994);
  ]

(* One cold run: fresh SAT log and budget, no replay store. *)
let run cfg c0 =
  let c = Netlist.Circuit.copy c0 in
  Smartly.Engine.Sat_log.reset ();
  Smartly.Budget.reset ();
  Smartly.Replay.uninstall ();
  ignore (Smartly.Driver.smartly ~cfg c);
  (Smartly.Replay.circuit_digest c, Aiger.Aigmap.aig_area c)

let test_profile (name, digest, area) () =
  let p =
    match Workloads.Profiles.by_name name with
    | Some p -> p
    | None -> Alcotest.failf "unknown profile %s" name
  in
  let c0 = Workloads.Profiles.circuit p in
  let expect label cfg =
    let d, a = run cfg c0 in
    check_int (Printf.sprintf "%s %s area" name label) area a;
    check_string (Printf.sprintf "%s %s digest" name label) digest d
  in
  let cfg = Smartly.Config.default in
  expect "legacy" cfg;
  List.iter
    (fun n ->
      expect (Printf.sprintf "jobs=%d" n) { cfg with Smartly.Config.jobs = Some n })
    [ 1; 2 ]

let test_yosys (name, digest, area) () =
  let p =
    match Workloads.Profiles.by_name name with
    | Some p -> p
    | None -> Alcotest.failf "unknown profile %s" name
  in
  let c = Workloads.Profiles.circuit p in
  ignore (Smartly.Driver.yosys c);
  check_int (name ^ " yosys area") area (Aiger.Aigmap.aig_area c);
  check_string (name ^ " yosys digest") digest
    (Smartly.Replay.circuit_digest c)

(* The per-pass invariant checker (validation, lint, equivalence after
   every sub-pass, as `opt --check-invariants` runs it) watches the
   legacy flow on mux_chain, which must still reach the golden netlist. *)
let test_invariants_on () =
  let name, digest, area = List.hd golden in
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let t = Lint.Invariant.create c in
  Smartly.Engine.Sat_log.reset ();
  Smartly.Budget.reset ();
  Smartly.Replay.uninstall ();
  ignore
    (Smartly.Driver.smartly ~after_pass:(Lint.Invariant.after_pass t) c);
  (match Lint.Invariant.failure t with
  | None -> ()
  | Some f ->
    Alcotest.fail (Fmt.str "invariant: %a" Lint.Invariant.pp_failure f));
  check_int (name ^ " area") area (Aiger.Aigmap.aig_area c);
  check_string (name ^ " digest") digest (Smartly.Replay.circuit_digest c)

let () =
  Alcotest.run "golden"
    [
      ( "netlist",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Quick (test_profile g))
          golden );
      ( "yosys",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Quick (test_yosys g))
          golden_yosys );
      ( "e2e",
        [
          Alcotest.test_case "netlist identity, invariants on" `Slow
            test_invariants_on;
        ] );
    ]
