(* Order statistics for the benchmark's reports.

   Medians come from Perf.Stat; this adds the one thing it lacks: a
   percentile that says how many samples it was taken over and how many
   lie beyond it, so a reported tail is never read off too few samples. *)

type percentile = {
  value : float;
  n : int;  (** samples the percentile was computed from *)
  beyond : int;  (** samples strictly greater than [value] *)
}

(* Linear interpolation between closest ranks (numpy's default), so
   p50 agrees with Perf.Stat.median on every input. *)
let percentile (xs : float list) (q : float) : percentile =
  match List.sort compare xs with
  | [] -> { value = 0.0; n = 0; beyond = 0 }
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    let value = a.(lo) +. (frac *. (a.(hi) -. a.(lo))) in
    let beyond = Array.fold_left (fun k x -> if x > value then k + 1 else k) 0 a in
    { value; n; beyond }

let median xs = Perf.Stat.median (Array.of_list xs)

(* [num / den], 0 when nothing was attempted: a ratio of useful outcomes
   to attempts is undefined, not infinite, on a layer that never ran. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
