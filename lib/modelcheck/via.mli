(** A recorded move — (pid, pc, alt, flick) — packed into one int.

    {!Par_explore} keeps one of these per stored state to replay
    fingerprint-only counterexamples. *)

val pack : pid:int -> pc:int -> alt:int -> flick:int -> int
(** [pid < 2^12], [pc < 2^16], [alt < 2^8], [flick < 2^26] (the
    {!Regsem.Flicker} rank cap). *)

val pid : int -> int
val pc : int -> int
val alt : int -> int
val flick : int -> int
