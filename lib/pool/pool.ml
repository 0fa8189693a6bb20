(* Work-stealing domain pool for sharding independent work items.

   The shape is dictated by the determinism requirement upstream: the
   caller hands over [n] indexed tasks whose results must be merged *in
   task order* no matter which domain ran which task, so [run] returns a
   plain ['r array] indexed by task.  Scheduling therefore only affects
   wall-clock, never output.

   Each worker owns a bounded deque seeded round-robin; owners pop from
   the front, thieves steal from the back of a victim's deque.  A mutex
   per deque keeps the operations trivially correct — the tasks here are
   muxtree optimizations costing milliseconds to seconds, so queue
   contention is noise.  Domains are spawned per [run] call and joined
   before it returns: pass-scoped parallelism, no persistent pool state
   to keep consistent between passes.

   The calling domain participates as worker 0, so [jobs] counts total
   workers, and [jobs = 1] runs every task inline with no domain spawned
   at all — that is the scheduler's sequential reference point. *)

type deque = {
  m : Mutex.t;
  buf : int array; (* task indices; fixed — the task set is known up front *)
  mutable head : int; (* next owner pop *)
  mutable tail : int; (* one past the last element; thieves take tail-1 *)
}

let pop_own dq =
  Mutex.lock dq.m;
  let r =
    if dq.head < dq.tail then begin
      let t = dq.buf.(dq.head) in
      dq.head <- dq.head + 1;
      Some t
    end
    else None
  in
  Mutex.unlock dq.m;
  r

let steal dq =
  Mutex.lock dq.m;
  let r =
    if dq.head < dq.tail then begin
      dq.tail <- dq.tail - 1;
      Some dq.buf.(dq.tail)
    end
    else None
  in
  Mutex.unlock dq.m;
  r

let recommended_jobs () = Domain.recommended_domain_count ()

let run ~jobs ~(init : unit -> 'w) ~(task : 'w -> int -> 'r) (n : int) :
    'r array =
  (* [jobs] comes from the command line and from serve requests; more
     workers than cores buys nothing, and past the runtime's domain limit
     [Domain.spawn] would raise with siblings already running *)
  let jobs = max 1 (min jobs (recommended_jobs ())) in
  if n = 0 then [||]
  else if jobs = 1 then begin
    (* inline, but with the same failure contract as the parallel path:
       every task runs, then the first failure is re-raised *)
    let w = init () in
    let results : 'r option array = Array.make n None in
    let failure = ref None in
    for i = 0 to n - 1 do
      match task w i with
      | r -> results.(i) <- Some r
      | exception e ->
        if !failure = None then
          failure := Some (e, Printexc.get_raw_backtrace ())
    done;
    (match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some r -> r | None -> assert false) results
  end
  else begin
    let workers = min jobs n in
    let deques =
      Array.init workers (fun wi ->
          (* round-robin seed: worker wi owns tasks wi, wi+workers, ... *)
          let mine = ref [] in
          let i = ref (n - 1) in
          while !i >= 0 do
            if !i mod workers = wi then mine := !i :: !mine;
            decr i
          done;
          let buf = Array.of_list !mine in
          { m = Mutex.create (); buf; head = 0; tail = Array.length buf })
    in
    let results : 'r option array = Array.make n None in
    let failures : (exn * Printexc.raw_backtrace) option array =
      Array.make n None
    in
    let worker wi =
      let w = init () in
      let exec t =
        match task w t with
        | r -> results.(t) <- Some r
        | exception e ->
          failures.(t) <- Some (e, Printexc.get_raw_backtrace ())
      in
      let rec next () =
        match pop_own deques.(wi) with
        | Some t ->
          exec t;
          next ()
        | None -> steal_from 1
      and steal_from k =
        if k < workers then
          match steal deques.((wi + k) mod workers) with
          | Some t ->
            exec t;
            next ()
          | None -> steal_from (k + 1)
      in
      next ()
    in
    let domains =
      Array.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join domains;
    (* deterministic error propagation: the failure of the lowest task
       index wins, like sequential execution would have raised it first *)
    Array.iteri
      (fun t f ->
        match f with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ignore t)
      failures;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every task ran or raised above *))
      results
  end

