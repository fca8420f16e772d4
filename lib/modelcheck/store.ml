(* The checker's state store: bit-packed states in insertion order in an
   unscanned arena, plus an open-addressing index from contents to id.

   Packing.  Each cell is zigzag-encoded (small negatives stay small)
   and stored at a per-cell width; cells are laid out in order and never
   straddle a word, so a state of [cells] cells occupies [words] ints
   and a cell is one shift and mask away.  The widths start as those of
   the first stored state and only ever grow: when a state arrives with
   a value its cell cannot hold, {!widen} computes the new layout,
   re-encodes every stored state in id order into a fresh arena, and
   rebuilds the index.  Values only get that wide by being reached, so
   this happens early in a search and needs no static analysis of the
   program: Bakery++ at N=4/M=2 widens 36 times, the last at state
   49,800 of 2,130,895, and packs its 16 cells into one word.

   Index.  Each slot packs a 31-bit hash tag with the id, so a probe
   touches one index word per step and the arena only on a tag match.
   The hash (FNV over the packed words, finished with
   {!Fingerprint.mix}: FNV's low bits, which pick the slot, otherwise
   see only the low bits of the last word) is never stored: growing the
   table re-hashes the arena, one or two words per state, which costs
   less than the 8 bytes per state a side vector of hashes would.

   Memory.  Arena and index are {!Chunked} vectors: large [Bytes]
   blocks the GC neither scans nor moves.  Everything else the store
   holds is the layout tables and one key buffer.

   Single-threaded: probing writes the key buffer and the remembered
   slot. *)

type t = {
  mutable cells : int;  (* cells per state; -1 until the first add *)
  mutable width : int array;  (* cell -> bits, 0..63 *)
  mutable word_of : int array;  (* cell -> word within the state *)
  mutable shift : int array;  (* cell -> bit offset within that word *)
  mutable words : int;  (* packed words per state *)
  mutable key : int array;  (* the last probed state, packed *)
  mutable arena : Chunked.t;  (* state [id] at words [id * words ..] *)
  mutable table : Chunked.t;
      (* slot -> 0 when empty, else (hash high bits lsl 32) lor (id + 1) *)
  mutable mask : int;
  mutable count : int;
  mutable last_slot : int;  (* -1: the last probe did not reach a slot *)
  mutable last_hash : int;
}

let index_chunk_bits = 12
let initial_slots = 1 lsl index_chunk_bits
let int_bits = Sys.int_size
let tag_of h = (h lsr 32) lsl 32
let id_of_entry e = (e land 0xffff_ffff) - 1

(* One chunk holds the initial table, so every table size is a whole
   number of chunks. *)
let new_table slots =
  let table = Chunked.create ~chunk_bits:index_chunk_bits () in
  Chunked.reset_zeros table slots;
  table

let create () =
  {
    cells = -1;
    width = [||];
    word_of = [||];
    shift = [||];
    words = 0;
    key = [||];
    arena = Chunked.create ();
    table = new_table initial_slots;
    mask = initial_slots - 1;
    count = 0;
    last_slot = -1;
    last_hash = 0;
  }

let length t = t.count

(* Zigzag over 63-bit ints: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...; the
   result is unsigned, so [min_int] and [max_int] take all 63 bits. *)
let zigzag x = (x lsl 1) lxor (x asr (int_bits - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* The [width]-bit code at bit [shift] of a packed word. *)
let field word ~shift ~width = (word lsr shift) land ((1 lsl width) - 1)

let bits_of z =
  let b = ref 0 in
  while !b < int_bits && z lsr !b <> 0 do incr b done;
  !b

(* Pack [s] into [t.key]; [false] as soon as a cell does not fit.
   Cells come in word order and every word holds at least one, so each
   word is assembled in a register and stored once. *)
let encode t (s : State.packed) =
  let key = t.key and width = t.width and word_of = t.word_of
  and shift = t.shift and cells = t.cells in
  let fits = ref true and i = ref 0 and w = ref 0 and acc = ref 0 in
  while !fits && !i < cells do
    let c = !i in
    let z = zigzag (Array.unsafe_get s c) in
    if z lsr Array.unsafe_get width c <> 0 then fits := false
    else begin
      let wc = Array.unsafe_get word_of c in
      if wc <> !w then begin
        Array.unsafe_set key !w !acc;
        w := wc;
        acc := 0
      end;
      acc := !acc lor (z lsl Array.unsafe_get shift c);
      i := c + 1
    end
  done;
  if !fits && cells > 0 then Array.unsafe_set key !w !acc;
  !fits

let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let hash_key t =
  let h = ref fnv_offset in
  for w = 0 to t.words - 1 do
    h := (!h lxor Array.unsafe_get t.key w) * fnv_prime
  done;
  Fingerprint.mix !h land max_int

(* The same hash, of a stored state read in place. *)
let hash_at t id =
  let base = id * t.words in
  let h = ref fnv_offset in
  for w = 0 to t.words - 1 do
    h := (!h lxor Chunked.unsafe_get t.arena (base + w)) * fnv_prime
  done;
  Fingerprint.mix !h land max_int

let key_equal_at t id =
  let base = id * t.words in
  let w = ref 0 in
  while
    !w < t.words
    && Array.unsafe_get t.key !w = Chunked.unsafe_get t.arena (base + !w)
  do
    incr w
  done;
  !w = t.words

let read_into t id (dst : State.packed) =
  if id < 0 || id >= t.count then invalid_arg "Store.read_into: no such id";
  if Array.length dst <> t.cells then
    invalid_arg "Store.read_into: buffer length differs from the states'";
  let width = t.width and word_of = t.word_of and shift = t.shift in
  let base = id * t.words in
  (* Cells are laid out in word order: load each word once. *)
  let w = ref (-1) and word = ref 0 in
  for i = 0 to t.cells - 1 do
    let wi = Array.unsafe_get word_of i in
    if wi <> !w then begin
      w := wi;
      word := Chunked.unsafe_get t.arena (base + wi)
    end;
    Array.unsafe_set dst i
      (unzigzag
         (field !word ~shift:(Array.unsafe_get shift i)
            ~width:(Array.unsafe_get width i)))
  done

let get t id =
  let s = Array.make (max t.cells 0) 0 in
  read_into t id s;
  s

(* First empty slot on [h]'s probe path. *)
let free_slot table mask h =
  let i = ref (h land mask) in
  while Chunked.unsafe_get table !i <> 0 do
    i := (!i + 1) land mask
  done;
  !i

let probe t (s : State.packed) =
  t.last_slot <- -1;
  if Array.length s <> t.cells || not (encode t s) then
    (* Every stored state fits the layout, so one that does not (or has
       another length) is absent. *)
    -1
  else begin
    let h = hash_key t in
    let table = t.table and mask = t.mask in
    let tag = tag_of h in
    let i = ref (h land mask) in
    let found = ref (-1) in
    let scanning = ref true in
    while !scanning do
      let e = Chunked.unsafe_get table !i in
      if e = 0 then scanning := false
      else if tag_of e = tag && key_equal_at t (id_of_entry e) then begin
        found := id_of_entry e;
        scanning := false
      end
      else i := (!i + 1) land mask
    done;
    t.last_slot <- !i;
    t.last_hash <- h;
    !found
  end

let find_opt t s = match probe t s with -1 -> None | id -> Some id

(* Re-index every stored state into an emptied table of [slots] slots,
   grown in place: the index is rebuilt from the arena, never from the
   old table, so the old chunks are reused instead of living on beside
   the new ones until the next major GC. *)
let rebuild t slots =
  let table = t.table and mask = slots - 1 in
  Chunked.reset_zeros table slots;
  for id = 0 to t.count - 1 do
    let h = hash_at t id in
    Chunked.unsafe_set table (free_slot table mask h) (tag_of h lor (id + 1))
  done;
  t.mask <- mask

(* Lay cells out in order at [width], starting a new word whenever the
   next cell would straddle the current one. *)
let set_layout t width =
  let cells = Array.length width in
  let word_of = Array.make cells 0 and shift = Array.make cells 0 in
  let word = ref 0 and off = ref 0 in
  for i = 0 to cells - 1 do
    if !off + width.(i) > int_bits then begin
      incr word;
      off := 0
    end;
    word_of.(i) <- !word;
    shift.(i) <- !off;
    off := !off + width.(i)
  done;
  t.cells <- cells;
  t.width <- width;
  t.word_of <- word_of;
  t.shift <- shift;
  t.words <- (if cells = 0 then 0 else !word + 1);
  t.key <- Array.make t.words 0

(* Widen every cell [s] overflows to the bits its value needs, then
   re-encode the stored states, in id order, into a fresh arena (a
   cell's zigzag code is the same under both layouts: it moves, it is
   not recomputed) and re-index them, since their packed words — and
   so their hashes — changed. *)
let widen t (s : State.packed) =
  let old = { t with cells = t.cells } in
  let width =
    Array.mapi (fun i w -> max w (bits_of (zigzag s.(i)))) t.width
  in
  set_layout t width;
  let arena = Chunked.create () in
  for id = 0 to t.count - 1 do
    let base = id * old.words in
    Array.fill t.key 0 t.words 0;
    for i = 0 to t.cells - 1 do
      let z =
        field
          (Chunked.unsafe_get old.arena (base + old.word_of.(i)))
          ~shift:old.shift.(i) ~width:old.width.(i)
      in
      let w = t.word_of.(i) in
      t.key.(w) <- t.key.(w) lor (z lsl t.shift.(i))
    done;
    for w = 0 to t.words - 1 do
      Chunked.push arena t.key.(w)
    done
  done;
  t.arena <- arena;
  rebuild t (t.mask + 1)

let add_probed t (s : State.packed) =
  if t.cells < 0 then
    set_layout t (Array.map (fun x -> bits_of (zigzag x)) s)
  else if Array.length s <> t.cells then
    invalid_arg "Store.add_probed: state length differs from the stored states'";
  if t.last_slot < 0 then begin
    (* The probe stopped short: first state, or one that needs wider
       cells.  Make it fit, then find its slot. *)
    if not (encode t s) then begin
      widen t s;
      ignore (encode t s)
    end;
    t.last_hash <- hash_key t;
    t.last_slot <- free_slot t.table t.mask t.last_hash
  end;
  let id = t.count in
  for w = 0 to t.words - 1 do
    Chunked.push t.arena (Array.unsafe_get t.key w)
  done;
  t.count <- id + 1;
  Chunked.unsafe_set t.table t.last_slot (tag_of t.last_hash lor (id + 1));
  t.last_slot <- -1;
  (* Keep the load factor at or below 2/3: linear probing's sequential
     cache lines tolerate it well, and the smaller table keeps more of
     the index in cache than a half-full one twice the size.  Large
     tables quadruple instead of doubling: re-placing an entry is a
     random write, so halving the number of rebuilds matters more than
     the transiently lower load factor. *)
  let slots = t.mask + 1 in
  if 3 * (id + 1) > 2 * slots then
    rebuild t ((if slots >= 1 lsl 18 then 4 else 2) * slots);
  id

let add t s =
  match probe t s with
  | -1 -> Some (add_probed t s)
  | _ -> None

let load_factor t =
  if t.count = 0 then 0.0
  else float_of_int t.count /. float_of_int (t.mask + 1)

let arena_bytes t = Chunked.bytes t.arena + Chunked.bytes t.table
