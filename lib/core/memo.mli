(** A no-op kept for callers that still scope each run with
    [Smartly.Memo.reset] (the repository benchmark does).  The engine
    keeps no verdicts between queries. *)

val reset : unit -> unit
(** Does nothing. *)
