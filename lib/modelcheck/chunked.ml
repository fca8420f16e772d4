(* Growable int vectors in fixed-size chunks of raw bytes.

   Element [i] is the native-endian int64 at byte [8 * (i land mask)]
   of chunk [i lsr bits].  A chunk is a [Bytes.t] well above the
   minor-heap size limit, so it is allocated straight into the major
   heap as one block whose contents the GC never scans — marking it
   costs one header, however many states it holds — and, being a large
   block, it is never moved.

   Why not [Bigarray]: its chunks are custom blocks charged to the GC
   as external memory, and against the checker's ~1 MB heap that
   forced a full major cycle every few hundred KB of chunks — 326
   cycles on the N=4/M=2 check instead of ~20.

   The [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives compile to
   one unboxed load or store; ints go through [Int64] only in
   registers. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  bits : int;
  mask : int;
  mutable chunks : Bytes.t array;  (* the first [nchunks] are allocated *)
  mutable nchunks : int;
  mutable length : int;
}

let create ?(chunk_bits = 14) () =
  {
    bits = chunk_bits;
    mask = (1 lsl chunk_bits) - 1;
    chunks = [||];
    nchunks = 0;
    length = 0;
  }

let add_chunk t chunk =
  if t.nchunks = Array.length t.chunks then begin
    let chunks = Array.make (max 8 (2 * t.nchunks)) Bytes.empty in
    Array.blit t.chunks 0 chunks 0 t.nchunks;
    t.chunks <- chunks
  end;
  t.chunks.(t.nchunks) <- chunk;
  t.nchunks <- t.nchunks + 1

let reset_zeros t n =
  for c = 0 to t.nchunks - 1 do
    Bytes.fill t.chunks.(c) 0 (8 lsl t.bits) '\000'
  done;
  while t.nchunks lsl t.bits < n do
    add_chunk t (Bytes.make (8 lsl t.bits) '\000')
  done;
  t.length <- n

let unsafe_get t i =
  Int64.to_int
    (get64 (Array.unsafe_get t.chunks (i lsr t.bits)) ((i land t.mask) lsl 3))

let unsafe_set t i x =
  set64
    (Array.unsafe_get t.chunks (i lsr t.bits))
    ((i land t.mask) lsl 3)
    (Int64.of_int x)

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Chunked.get: index out of bounds";
  unsafe_get t i

let push t x =
  let i = t.length in
  if i lsr t.bits >= t.nchunks then add_chunk t (Bytes.create (8 lsl t.bits));
  unsafe_set t i x;
  t.length <- i + 1

let bytes t = t.nchunks lsl (t.bits + 3)
