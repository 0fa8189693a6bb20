(* A CDCL SAT solver in the MiniSAT tradition:
   - two-watched-literal unit propagation
   - first-UIP conflict analysis with learnt-clause minimization
   - VSIDS variable activities with a binary heap, phase saving
   - Luby restarts, learnt-clause database reduction
   - incremental solving under assumptions, optional conflict budget

   Values are encoded as ints: 1 = true, 0 = false, -1 = unassigned. *)

type clause = {
  mutable lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

type result = Sat | Unsat | Unknown

type t = {
  (* clauses *)
  mutable clauses : clause list;
  mutable num_problem_clauses : int;
  mutable learnts : clause list;
  mutable num_learnts : int;
  (* variable state, indexed by var *)
  mutable assigns : int array; (* -1 / 0 / 1 *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array;
  (* watches indexed by literal *)
  mutable watches : clause list array;
  (* trail *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int list; (* stack of trail sizes at decisions *)
  mutable qhead : int;
  (* heap of candidate decision vars, ordered by activity *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> index in heap, -1 if absent *)
  (* counters *)
  mutable num_vars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  (* telemetry of the most recent [solve] call *)
  mutable last_conflicts : int;
  mutable last_decisions : int;
  mutable last_propagations : int;
  mutable last_wall_s : float;
}

let create () =
  {
    clauses = [];
    num_problem_clauses = 0;
    learnts = [];
    num_learnts = 0;
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 None;
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    watches = Array.make 32 [];
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = [];
    qhead = 0;
    heap = Array.make 16 0;
    heap_size = 0;
    heap_pos = Array.make 16 (-1);
    num_vars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    last_conflicts = 0;
    last_decisions = 0;
    last_propagations = 0;
    last_wall_s = 0.0;
  }

let num_vars s = s.num_vars
let num_clauses s = s.num_problem_clauses
let num_conflicts s = s.conflicts

(* --- dynamic arrays --- *)

let grow_to s n =
  let old = Array.length s.assigns in
  if n > old then begin
    let nn = max n (old * 2) in
    let ext a fill =
      let b = Array.make nn fill in
      Array.blit a 0 b 0 old;
      b
    in
    s.assigns <- ext s.assigns (-1);
    s.level <- ext s.level 0;
    s.reason <- ext s.reason None;
    s.activity <- ext s.activity 0.0;
    s.polarity <- ext s.polarity false;
    s.seen <- ext s.seen false;
    s.heap_pos <- ext s.heap_pos (-1);
    let oldw = Array.length s.watches in
    let w = Array.make (nn * 2) [] in
    Array.blit s.watches 0 w 0 oldw;
    s.watches <- w;
    let tr = Array.make nn 0 in
    Array.blit s.trail 0 tr 0 s.trail_size;
    s.trail <- tr;
    let h = Array.make nn 0 in
    Array.blit s.heap 0 h 0 s.heap_size;
    s.heap <- h
  end

(* --- activity heap (max-heap on var activity) --- *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(p) then begin
      let vi = s.heap.(i) and vp = s.heap.(p) in
      s.heap.(i) <- vp;
      s.heap.(p) <- vi;
      s.heap_pos.(vp) <- i;
      s.heap_pos.(vi) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let vi = s.heap.(i) and vb = s.heap.(!best) in
    s.heap.(i) <- vb;
    s.heap.(!best) <- vi;
    s.heap_pos.(vb) <- i;
    s.heap_pos.(vi) <- !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

(* --- variables --- *)

let new_var s =
  let v = s.num_vars in
  s.num_vars <- v + 1;
  grow_to s (v + 1);
  heap_insert s v;
  v

let value_var s v = s.assigns.(v)

let value_lit s l =
  let a = s.assigns.(Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

(* --- activities --- *)

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.num_vars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    List.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* --- trail --- *)

let decision_level s = List.length s.trail_lim

let enqueue s l reason =
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.is_negated l then 0 else 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let new_decision_level s = s.trail_lim <- s.trail_size :: s.trail_lim

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let rec target_limit lim n =
      match lim with
      | [] -> 0, []
      | sz :: rest ->
        if n = lvl + 1 then sz, rest else target_limit rest (n - 1)
    in
    let bound, new_lim = target_limit s.trail_lim (decision_level s) in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      let v = Lit.var l in
      s.polarity.(v) <- not (Lit.is_negated l);
      s.assigns.(v) <- -1;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim <- new_lim
  end

(* --- clauses --- *)

let attach_clause s c =
  let l0 = c.lits.(0) and l1 = c.lits.(1) in
  s.watches.(Lit.negate l0) <- c :: s.watches.(Lit.negate l0);
  s.watches.(Lit.negate l1) <- c :: s.watches.(Lit.negate l1)

(* Add a problem clause.  Backtracks to level 0 first, so it is safe to call
   between incremental [solve] invocations. *)
let add_clause s (lits : int list) =
  cancel_until s 0;
  if s.ok then begin
    (* dedupe, drop false literals, detect tautologies / satisfied clauses *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (Lit.negate l) lits) lits
      || List.exists (fun l -> value_lit s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> value_lit s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] -> enqueue s l None
      | _ ->
        let c =
          {
            lits = Array.of_list lits;
            activity = 0.0;
            learnt = false;
            deleted = false;
          }
        in
        s.clauses <- c :: s.clauses;
        s.num_problem_clauses <- s.num_problem_clauses + 1;
        attach_clause s c
    end
  end

(* --- propagation --- *)

exception Conflict of clause

let propagate s : clause option =
  let conflict = ref None in
  (try
     while s.qhead < s.trail_size do
       let p = s.trail.(s.qhead) in
       s.qhead <- s.qhead + 1;
       s.propagations <- s.propagations + 1;
       let ws = s.watches.(p) in
       s.watches.(p) <- [];
       let rec go = function
         | [] -> ()
         | c :: rest when c.deleted -> go rest
         | c :: rest -> (
           (* make sure the false literal is lits.(1) *)
           let np = Lit.negate p in
           if c.lits.(0) = np then begin
             c.lits.(0) <- c.lits.(1);
             c.lits.(1) <- np
           end;
           let first = c.lits.(0) in
           if value_lit s first = 1 then begin
             (* clause satisfied; keep watching p *)
             s.watches.(p) <- c :: s.watches.(p);
             go rest
           end
           else begin
             (* look for a new watch *)
             let n = Array.length c.lits in
             let rec find k =
               if k >= n then -1
               else if value_lit s c.lits.(k) <> 0 then k
               else find (k + 1)
             in
             let k = find 2 in
             if k >= 0 then begin
               let lk = c.lits.(k) in
               c.lits.(1) <- lk;
               c.lits.(k) <- np;
               s.watches.(Lit.negate lk) <- c :: s.watches.(Lit.negate lk);
               go rest
             end
             else if value_lit s first = 0 then begin
               (* conflict: restore remaining watches *)
               s.watches.(p) <- c :: s.watches.(p);
               List.iter
                 (fun c' -> s.watches.(p) <- c' :: s.watches.(p))
                 rest;
               s.qhead <- s.trail_size;
               raise (Conflict c)
             end
             else begin
               s.watches.(p) <- c :: s.watches.(p);
               enqueue s first (Some c);
               go rest
             end
           end)
       in
       go ws
     done
   with Conflict c -> conflict := Some c);
  !conflict

(* --- conflict analysis (first UIP) --- *)

let litRedundant s cache l =
  (* simple (non-recursive-minimization) check: reason-implied literal whose
     reason lits are all seen or level 0 *)
  match s.reason.(Lit.var l) with
  | None -> false
  | Some c ->
    Array.for_all
      (fun q ->
        q = Lit.negate l || s.seen.(Lit.var q) || s.level.(Lit.var q) = 0
        || Hashtbl.mem cache (Lit.var q))
      c.lits

let analyze s (conflict : clause) : int list * int =
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in
  (* -1 = start with the whole conflict clause *)
  let index = ref (s.trail_size - 1) in
  let cur_level = decision_level s in
  let cleanup = ref [] in
  let expand (c : clause) (skip : int) =
    bump_clause s c;
    Array.iter
      (fun q ->
        if q <> skip then begin
          let v = Lit.var q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            cleanup := v :: !cleanup;
            bump_var s v;
            if s.level.(v) >= cur_level then incr path_count
            else learnt := q :: !learnt
          end
        end)
      c.lits
  in
  expand conflict (-2);
  let rec walk () =
    (* find next seen literal on the trail at the current level *)
    while not s.seen.(Lit.var s.trail.(!index)) do
      decr index
    done;
    let l = s.trail.(!index) in
    decr index;
    s.seen.(Lit.var l) <- false;
    decr path_count;
    if !path_count > 0 then begin
      (match s.reason.(Lit.var l) with
      | Some c -> expand c (l)
      | None -> assert false);
      walk ()
    end
    else p := l
  in
  walk ();
  (* minimize: drop redundant literals *)
  let cache = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace cache (Lit.var q) ()) !learnt;
  let learnt_min =
    List.filter (fun q -> not (litRedundant s cache q)) !learnt
  in
  let uip = Lit.negate !p in
  (* backtrack level: second-highest level in the learnt clause *)
  let blevel =
    List.fold_left (fun acc q -> max acc s.level.(Lit.var q)) 0 learnt_min
  in
  List.iter (fun v -> s.seen.(v) <- false) !cleanup;
  uip :: learnt_min, blevel

let record_learnt s lits blevel =
  cancel_until s blevel;
  match lits with
  | [] -> s.ok <- false
  | [ l ] -> enqueue s l None
  | l :: _ ->
    let c =
      {
        lits = Array.of_list lits;
        activity = 0.0;
        learnt = true;
        deleted = false;
      }
    in
    (* watch the UIP literal and one literal from the backtrack level *)
    let arr = c.lits in
    let best = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if s.level.(Lit.var arr.(i)) > s.level.(Lit.var arr.(!best)) then
        best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    s.learnts <- c :: s.learnts;
    s.num_learnts <- s.num_learnts + 1;
    bump_clause s c;
    attach_clause s c;
    enqueue s l (Some c)

(* --- learnt DB reduction --- *)

let reduce_db s =
  let sorted =
    List.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) s.learnts
  in
  let n = List.length sorted in
  let to_remove = n / 2 in
  let locked c =
    (* a clause that is the reason of an assignment must stay *)
    Array.exists
      (fun l ->
        value_lit s l = 1
        &&
        match s.reason.(Lit.var l) with
        | Some r -> r == c
        | None -> false)
      c.lits
  in
  let removed = ref 0 in
  List.iteri
    (fun i c ->
      if i < to_remove && (not (locked c)) && Array.length c.lits > 2 then begin
        c.deleted <- true;
        incr removed
      end)
    sorted;
  s.learnts <- List.filter (fun c -> not c.deleted) s.learnts;
  s.num_learnts <- List.length s.learnts

(* --- Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... --- *)

let rec luby_value i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then float_of_int (1 lsl (!k - 1))
  else luby_value (i - ((1 lsl (!k - 1)) - 1))

(* --- main search --- *)

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assigns.(v) < 0 then v else go ()
  in
  go ()

type solve_outcome = result

(* [budget] here is an absolute conflict count: [solve_raw] has already
   added the caller's per-call budget to the conflicts accumulated before
   this call, so a long-lived incremental solver (a [Session]) gets a full
   budget on every query instead of starving once its lifetime total
   crosses one budget's worth.

   [relevant], when given, restricts decisions to those variables and lets
   the search stop with [Sat] once they are all assigned without conflict
   — a partial model.  The caller guarantees that every clause over the
   remaining variables is satisfiable under ANY such partial assignment
   (Session queries: each inactive clause group carries an assumed-false
   guard, so its clauses are already satisfied, and learned clauses are
   consequences of the problem clauses, so any extension that satisfies
   the problem clauses satisfies them too).  Without it every variable is
   assigned, as a plain CDCL solver does. *)
let search s ~assumptions ~budget ~relevant : solve_outcome =
  let assumptions = Array.of_list assumptions in
  let n_ass = Array.length assumptions in
  let nof_conflicts = ref 100.0 in
  let restart_count = ref 0 in
  let conflicts_this_restart = ref 0 in
  let rec loop () =
    match propagate s with
    | Some conflict ->
      s.conflicts <- s.conflicts + 1;
      incr conflicts_this_restart;
      if decision_level s = 0 then begin
        s.ok <- false;
        Unsat
      end
      else begin
        let learnt, blevel = analyze s conflict in
        (* never backtrack above the assumption prefix boundary *)
        record_learnt s learnt blevel;
        s.var_inc <- s.var_inc *. var_decay;
        s.cla_inc <- s.cla_inc *. cla_decay;
        if s.num_learnts > 4000 + (s.num_problem_clauses / 2) then reduce_db s;
        match budget with
        | Some b when s.conflicts >= b ->
          cancel_until s 0;
          Unknown
        | Some _ | None -> loop ()
      end
    | None ->
      if float_of_int !conflicts_this_restart >= !nof_conflicts then begin
        (* restart *)
        incr restart_count;
        conflicts_this_restart := 0;
        nof_conflicts := 100.0 *. luby_value !restart_count;
        cancel_until s 0;
        loop ()
      end
      else decide ()
  and decide () =
    (* re-establish assumptions first *)
    let dl = decision_level s in
    if dl < n_ass then begin
      let p = assumptions.(dl) in
      match value_lit s p with
      | 1 ->
        new_decision_level s;
        loop ()
      | 0 ->
        (* assumption contradicted *)
        cancel_until s 0;
        Unsat
      | _ ->
        new_decision_level s;
        enqueue s p None;
        loop ()
    end
    else begin
      let v =
        match relevant with
        | None -> pick_branch_var s
        | Some vars ->
          (* linear max-activity scan: [vars] is one query's cone, small
             against the accumulated database, and bypassing the heap
             keeps it consistent for later unrestricted calls *)
          let best = ref (-1) in
          Array.iter
            (fun v ->
              if
                s.assigns.(v) < 0
                && (!best < 0 || s.activity.(v) > s.activity.(!best))
              then best := v)
            vars;
          !best
      in
      if v < 0 then Sat
      else begin
        s.decisions <- s.decisions + 1;
        new_decision_level s;
        let l = Lit.of_var ~negated:(not s.polarity.(v)) v in
        enqueue s l None;
        loop ()
      end
    end
  in
  loop ()

(* Wrapped so every path through [solve] records the per-call deltas the
   engine's per-query telemetry reads back via [last_solve_stats]. *)
let solve_raw ?(assumptions = []) ?budget ?relevant s : result =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    match propagate s with
    | Some _ ->
      s.ok <- false;
      Unsat
    | None ->
      (* make the caller's budget per-call: cap at current + budget *)
      let budget = Option.map (fun b -> s.conflicts + b) budget in
      let relevant = Option.map Array.of_list relevant in
      let r = search s ~assumptions ~budget ~relevant in
      (match r with
      | Sat -> () (* keep trail so the model can be read *)
      | Unsat | Unknown -> cancel_until s 0);
      r
  end

type solve_stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  wall_s : float;
}

let solve ?assumptions ?budget ?relevant (s : t) : result =
  let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
  let t0 = Obs.Clock.now () in
  let r = solve_raw ?assumptions ?budget ?relevant s in
  s.last_conflicts <- s.conflicts - c0;
  s.last_decisions <- s.decisions - d0;
  s.last_propagations <- s.propagations - p0;
  s.last_wall_s <- Obs.Clock.now () -. t0;
  r

let last_solve_stats (s : t) =
  {
    conflicts = s.last_conflicts;
    decisions = s.last_decisions;
    propagations = s.last_propagations;
    wall_s = s.last_wall_s;
  }

(* Read the model after [solve] returned [Sat]. *)
let model_value s v =
  match s.assigns.(v) with
  | 1 -> true
  | 0 -> false
  | _ -> s.polarity.(v)

(* After Sat, the caller usually wants to continue incrementally. *)
let release_model s = cancel_until s 0

let stats (s : t) = s.conflicts, s.decisions, s.propagations
