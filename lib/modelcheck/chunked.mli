(** Growable int vectors in fixed-size chunks the GC never scans.

    The checker's bulk memory — the {!Store} arena and index — lives in
    these.  Each chunk is one large [Bytes] block: the major GC marks
    its header, never its contents, and never moves it, so a store of
    millions of states costs the collector a few hundred blocks instead
    of millions of words to mark.  Growing appends a chunk; nothing is
    copied. *)

type t

val create : ?chunk_bits:int -> unit -> t
(** An empty vector whose chunks hold [2^chunk_bits] ints each
    (default 14, i.e. 128 KiB). *)

val reset_zeros : t -> int -> unit
(** [reset_zeros t n]: make [t] a vector of length [n] filled with [0],
    reusing its chunks and appending more as needed. *)

val get : t -> int -> int
(** Bounds-checked read. *)

val unsafe_get : t -> int -> int
(** Unchecked read: the index must be below the length. *)

val unsafe_set : t -> int -> int -> unit
(** Unchecked write: the index must be below the length. *)

val push : t -> int -> unit
(** Append one int; allocates a chunk only when the last one is full. *)

val bytes : t -> int
(** Bytes held by the allocated chunks (capacity, not length). *)
