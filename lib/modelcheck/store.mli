(** The checker's state store: bit-packed states in insertion order in
    an arena the GC never scans, plus an open-addressing index from
    state contents to id.

    Each stored state is packed into as few words as its values need:
    zigzag-encoded cells at per-cell widths, no cell straddling a word.
    The widths start at the first stored state's and widen (re-encoding
    every stored state, in id order) when a later value does not fit, so
    the packing is exact for any program.  Bakery++ at N=4/M=2 stores
    one word per state.  Arena and index live in {!Chunked} chunks —
    large [Bytes] blocks the GC neither moves nor scans; the index
    stores no hashes (growth re-hashes the packed arena).  Resident
    bytes per distinct state are the packed words plus the index share:
    24 B on [bakery_pp] N=4/M=2.  The sequential explorer keeps nothing
    else per state, and [@bench-smoke] gates this figure on N=3/M=2.

    {!probe}, {!add_probed} and {!read_into} allocate nothing, except
    that {!add_probed} appends a chunk when the arena's last one is full
    and rebuilds the layout or the index when the state needs wider
    cells or the table a larger size.  The "Explore.run allocates < 1
    word per state" test in [test/test_modelcheck.ml] pins this as part
    of the explorer loop.

    All states in one store must have the same length (the packed layout
    of one system).  Single-threaded: {!probe} writes internal buffers. *)

type t

val create : unit -> t
val length : t -> int

val probe : t -> State.packed -> int
(** Id of an equal stored state, or [-1].  A state of another length
    than the stored ones is absent.  Remembers the packed state, its
    hash and the final probe position; a following {!add_probed} reuses
    them instead of probing again. *)

val add_probed : t -> State.packed -> int
(** Insert a state known absent — immediately after a missed {!probe}
    for an equal state — by packing it into the arena.  The caller keeps
    ownership of [s] (scratch buffers can be inserted directly).
    Returns the new id.  Raises [Invalid_argument] if [s]'s length
    differs from the stored states'. *)

val get : t -> int -> State.packed
(** Unpack a fresh copy of a stored state. *)

val read_into : t -> int -> State.packed -> unit
(** Unpack a stored state into a caller-owned buffer of the states'
    length (the allocation-free {!get}). *)

val find_opt : t -> State.packed -> int option
(** Allocating convenience wrapper around {!probe}. *)

val load_factor : t -> float
(** Occupied fraction of the open-addressing index (kept at or below
    2/3 by growth); 0 when empty.  For progress telemetry. *)

val arena_bytes : t -> int
(** Bytes held by allocated arena chunks plus the index table — the
    store's resident memory, for progress telemetry. *)

val add : t -> State.packed -> int option
(** [probe] + [add_probed]: [Some id] if the state was new. *)
