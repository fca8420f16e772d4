(** A recorded move — (pid, pc, alt, flick) — packed into one int.

    Both explorers keep one of these per stored state: {!Par_explore}
    to replay fingerprint-only counterexamples, {!Explore} beside the
    parent id in its per-state metadata word.  pid and pc sit in the
    low {!move_bits} bits, so a via with [alt = flick = 0] leaves the
    high bits of the word free for the parent id. *)

val pack : pid:int -> pc:int -> alt:int -> flick:int -> int
(** [pid < 2^12], [pc < 2^16], [alt < 2^8], [flick < 2^26] (the
    {!Regsem.Flicker} rank cap). *)

val pid : int -> int
val pc : int -> int
val alt : int -> int
val flick : int -> int

val move_bits : int
(** Width of the pid and pc fields together (28). *)

val fits : nprocs:int -> nsteps:int -> bool
(** Do every pid and pc of such a program fit their fields? *)
