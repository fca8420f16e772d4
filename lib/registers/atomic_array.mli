(** Arrays of atomic integer registers, padded against false sharing.

    OCaml boxes each [Atomic.t].  [create] allocates 8 boxes per register
    back to back and uses every 8th as the register, so consecutive
    registers sit 8 boxes apart; the boxes in between stay reachable
    through [boxes], so the collector never frees them and reuses the
    gap.  This is a best-effort mitigation, sufficient for the
    throughput-shape experiments (we compare algorithms under the same
    memory layout, not absolute hardware numbers).

    Locks index [regs] directly ([Atomic.get a.regs.(j)]), so a register
    access in a lock's loop is a bounds-checked load and an atomic
    primitive, not a call into this module. *)

type t = private {
  regs : int Atomic.t array;  (** the registers, in index order *)
  boxes : int Atomic.t array;  (** every box, [regs.(i) == boxes.(8 * i)] *)
}

val create : int -> int -> t
(** [create n v]: [n] registers initialized to [v]. *)

val max_of : t -> int
(** Maximum over a one-register-at-a-time scan in index order, 0 for an
    empty array. *)

val words : t -> int
(** Shared memory footprint in words (registers only, not padding). *)
