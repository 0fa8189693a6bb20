(* Work-stealing domain pool tests: result indexing across worker
   counts, per-worker init, deterministic exception propagation, and the
   cap on the worker count. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Results come back indexed by task for every worker count, including
   jobs > tasks and the inline jobs = 1 path. *)
let test_indexed_results () =
  List.iter
    (fun jobs ->
      let r =
        Pool.run ~jobs ~init:(fun () -> ()) ~task:(fun () i -> i * i) 17
      in
      check_int "length" 17 (Array.length r);
      Array.iteri
        (fun i v -> check_int (Printf.sprintf "task %d" i) (i * i) v)
        r)
    [ 1; 2; 4; 32 ]

let test_zero_tasks () =
  let r = Pool.run ~jobs:4 ~init:(fun () -> ()) ~task:(fun () i -> i) 0 in
  check_int "empty" 0 (Array.length r)

(* Every worker calls [init] exactly once and owns its state: the sum of
   per-worker task counts equals the task count. *)
let test_worker_state () =
  let inits = Atomic.make 0 in
  let r =
    Pool.run ~jobs:3
      ~init:(fun () ->
        Atomic.incr inits;
        ref 0)
      ~task:(fun seen _ ->
        incr seen;
        seen)
      12
  in
  let distinct =
    List.fold_left
      (fun acc seen -> if List.memq seen acc then acc else seen :: acc)
      [] (Array.to_list r)
  in
  let total = List.fold_left (fun acc seen -> acc + !seen) 0 distinct in
  check_int "all tasks ran on some worker" 12 total;
  check_bool "workers <= jobs" true (List.length distinct <= 3);
  (* min(jobs, n, cores) workers each init once; on a loaded box some
     may lose every race for a task, so distinct states can be fewer *)
  check_int "inits = min jobs n cores"
    (min 3 (Pool.recommended_jobs ()))
    (Atomic.get inits)

(* The lowest-indexed failing task's exception surfaces — the same one a
   sequential left-to-right run would raise first — and the other tasks
   still ran to completion. *)
let test_exception_order () =
  List.iter
    (fun jobs ->
      let ran = Array.make 10 false in
      match
        Pool.run ~jobs ~init:(fun () -> ())
          ~task:(fun () i ->
            ran.(i) <- true;
            if i = 3 || i = 7 then failwith (Printf.sprintf "task %d" i))
          10
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        check_bool "lowest index wins" true (msg = "task 3");
        Array.iteri
          (fun i b -> check_bool (Printf.sprintf "ran %d" i) true b)
          ran)
    [ 1; 4 ]

(* A worker count from outside (serve's "jobs", --jobs) is capped at the
   core count: one init per worker, so [init] runs at most that often. *)
let test_jobs_clamped () =
  let inits = Atomic.make 0 in
  let r =
    Pool.run ~jobs:1_000_000
      ~init:(fun () -> Atomic.incr inits)
      ~task:(fun () i -> i)
      8
  in
  check_int "all tasks ran" 8 (Array.length r);
  check_bool "inits <= recommended_jobs" true
    (Atomic.get inits <= Pool.recommended_jobs ())

let test_recommended_jobs () =
  check_bool "positive" true (Pool.recommended_jobs () >= 1)

let () =
  Alcotest.run "pool"
    [
      ( "run",
        [
          Alcotest.test_case "indexed results" `Quick test_indexed_results;
          Alcotest.test_case "zero tasks" `Quick test_zero_tasks;
          Alcotest.test_case "worker state" `Quick test_worker_state;
          Alcotest.test_case "exception order" `Quick test_exception_order;
          Alcotest.test_case "jobs clamped to cores" `Quick test_jobs_clamped;
          Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
        ] );
    ]
