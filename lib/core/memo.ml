(* The repository benchmark (perfbench/) calls [reset] to scope each run;
   the engine keeps no cross-query state, so there is nothing to reset. *)

let reset () = ()
