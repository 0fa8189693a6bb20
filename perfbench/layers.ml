(* Per-layer accounting, measured from outside the program.

   Everything here times calls into public functions from the benchmark's
   own code: pass spans come from the [?after_pass] hook of
   Driver.yosys / Driver.smartly, frontend and check times from timing
   the calls themselves, and work counts from the counters and histogram
   sums Obs.Metrics already exports.  The program is never edited to
   feed the benchmark. *)

let now_ns = Obs.Clock.now_ns

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Obs.Clock.elapsed t0)

let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* --- named accumulators: frontend, aigmap, equiv, serve loader --- *)

type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 16
let get (a : acc) k = Option.value (Hashtbl.find_opt a k) ~default:0.0
let add (a : acc) k v = Hashtbl.replace a k (get a k +. v)

let time_into (a : acc) k f =
  let r, dt = timed f in
  add a k dt;
  r

(* --- pass spans of one flow ---

   The hook fires after each pass, so a pass's span runs from the end of
   the previous hook (or the flow's entry) to this hook's entry: driver
   bookkeeping between two passes lands in the later pass.  Time spent
   inside the hook itself is kept apart as [hook_s]; it and the tail
   after the last pass make up the flow's unattributed remainder. *)

type spans = {
  passes : acc;  (** pass name -> seconds, summed over iterations *)
  mutable count : int;  (** spans recorded: one per pass per iteration *)
  mutable wall : float;  (** flow wall seconds, summed over flows *)
  mutable hook_s : float;  (** seconds spent inside the hook *)
  mutable mark : int64;
}

let spans () = { passes = acc (); count = 0; wall = 0.0; hook_s = 0.0; mark = 0L }

let hook sp name (_ : Netlist.Circuit.t) =
  let t = now_ns () in
  add sp.passes name (seconds_between sp.mark t);
  sp.count <- sp.count + 1;
  let t' = now_ns () in
  sp.hook_s <- sp.hook_s +. seconds_between t t';
  sp.mark <- t'

(* Run one flow and return its wall seconds.  Untraced ([None]) flows get
   no hook at all, so the end-to-end figures carry no tracing cost. *)
let run_flow (sp : spans option)
    (flow : ?after_pass:(string -> Netlist.Circuit.t -> unit) -> unit -> unit)
    : float =
  match sp with
  | None -> snd (timed (fun () -> flow ()))
  | Some sp ->
    let t0 = now_ns () in
    sp.mark <- t0;
    flow ~after_pass:(hook sp) ();
    let wall = Obs.Clock.elapsed t0 in
    sp.wall <- sp.wall +. wall;
    wall

let attributed sp = Hashtbl.fold (fun _ v s -> s +. v) sp.passes 0.0

(* Share of the flow's wall time no pass span covers (hook time and the
   tail after the last pass).  With no traced flow there is nothing to
   attribute: the whole remainder is unknown, reported as 1. *)
let unattributed_frac sp =
  if sp.wall <= 0.0 then 1.0 else (sp.wall -. attributed sp) /. sp.wall

(* --- exported work counters --- *)

let counter name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter name))

let hist_sum name =
  (Obs.Metrics.histogram_stats (Obs.Metrics.histogram name)).Obs.Metrics.sum
