(* pc in bits 0-15, pid in 16-27, alt in 28-35, flick from 36: the
   flicker rank is capped at 2^26 by {!Regsem.Flicker}, so the whole
   via takes 62 bits. *)

let pack ~pid ~pc ~alt ~flick =
  (flick lsl 36) lor (alt lsl 28) lor (pid lsl 16) lor pc

let pc v = v land 0xffff
let pid v = (v lsr 16) land 0xfff
let alt v = (v lsr 28) land 0xff
let flick v = v lsr 36
