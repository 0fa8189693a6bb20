(** Signal substitution used by optimization passes. *)

val replace_sig : Circuit.t -> from_:Bits.sigspec -> to_:Bits.sigspec -> unit
(** Rewrite every reader of [from_] to read [to_] instead, visiting only
    the cells the circuit's reader map lists for [from_].  Bits of
    [from_] that belong to output ports cannot be renamed; a transparent
    or-with-zero buffer (free after AIG mapping) is inserted to keep them
    driven.  The caller removes the old driver cell.
    @raise Invalid_argument on width mismatch. *)
