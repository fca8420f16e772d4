(* pc in bits 0-15, pid in 16-27, alt in 28-35, flick from 36: the
   flicker rank is capped at 2^26 by {!Regsem.Flicker}, so the whole
   via takes 62 bits, and pid/pc alone take the low 28. *)

let move_bits = 28

let pack ~pid ~pc ~alt ~flick =
  (flick lsl 36) lor (alt lsl move_bits) lor (pid lsl 16) lor pc

let pc v = v land 0xffff
let pid v = (v lsr 16) land 0xfff
let alt v = (v lsr move_bits) land 0xff
let flick v = v lsr 36
let fits ~nprocs ~nsteps = nprocs <= 0x1000 && nsteps <= 0x10000
