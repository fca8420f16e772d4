module A = Registers.Atomic_array

exception Overflow_bug of { value : int; bound : int }

(* Per-process counters live in strided plain arrays: each slot is written
   by exactly one domain and only read after the domains join, so no
   atomicity is needed; the stride keeps the slots on distinct cache
   lines. *)
let stride = 8

type t = {
  n : int;
  m : int;
  choosing : A.t;
  number : A.t;
  acquires : int array;
  resets : int array;
  gate_spins : int array;
  peaks : int array;
}

type snapshot = {
  acquires : int;
  resets : int;
  gate_spins : int;
  peak_ticket : int;
}

let name = "bakery_pp"

let create_lock ~nprocs ~bound =
  if nprocs < 1 then invalid_arg "Bakery_pp_lock.create: nprocs must be >= 1";
  if bound < 1 then invalid_arg "Bakery_pp_lock.create: bound must be >= 1";
  {
    n = nprocs;
    m = bound;
    choosing = A.create nprocs 0;
    number = A.create nprocs 0;
    acquires = Array.make (nprocs * stride) 0;
    resets = Array.make (nprocs * stride) 0;
    gate_spins = Array.make (nprocs * stride) 0;
    peaks = Array.make (nprocs * stride) 0;
  }

let create ~nprocs ~bound = create_lock ~nprocs ~bound

(* Every ticket store funnels through here: the paper's no-overflow
   theorem, checked rather than assumed. *)
let store_ticket t i v =
  if v > t.m then raise (Overflow_bug { value = v; bound = t.m });
  Atomic.set t.number.A.regs.(i) v

let before a i b j = a < b || (a = b && i < j)

(* The L1 test: is any register at capacity?  Reads number[0], number[1],
   ... and stops at the first full one.  Here and in [acquire], loops
   rather than local closures: an uncontended acquire/release pair
   allocates nothing (pinned in test/test_core.ml). *)
let gate_is_closed t =
  let number = t.number.A.regs in
  let q = ref 0 in
  while !q < t.n && Atomic.get number.(!q) < t.m do
    incr q
  done;
  !q < t.n

let acquire t i =
  let slot = i * stride in
  let choosing = t.choosing.A.regs and number = t.number.A.regs in
  let entered = ref false in
  while not !entered do
    (* L1: wait while any register is at capacity. *)
    while gate_is_closed t do
      t.gate_spins.(slot) <- t.gate_spins.(slot) + 1;
      Registers.Spin.relax ()
    done;
    Atomic.set choosing.(i) 1;
    (* number[i] := maximum(number); safe, every cell is <= M. *)
    let mx = A.max_of t.number in
    store_ticket t i mx;
    if mx >= t.m then begin
      (* Algorithm 2's reset path: back off and retry from L1. *)
      store_ticket t i 0;
      Atomic.set choosing.(i) 0;
      t.resets.(slot) <- t.resets.(slot) + 1
    end
    else begin
      let ticket = mx + 1 in
      store_ticket t i ticket;
      Atomic.set choosing.(i) 0;
      if ticket > t.peaks.(slot) then t.peaks.(slot) <- ticket;
      for j = 0 to t.n - 1 do
        while Atomic.get choosing.(j) <> 0 do
          Registers.Spin.relax ()
        done;
        let nj = ref (Atomic.get number.(j)) in
        while !nj <> 0 && before !nj j ticket i do
          Registers.Spin.relax ();
          nj := Atomic.get number.(j)
        done
      done;
      t.acquires.(slot) <- t.acquires.(slot) + 1;
      entered := true
    end
  done

let release t i = store_ticket t i 0

let space_words t = A.words t.choosing + A.words t.number

let sum_slots t a =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + a.(i * stride)
  done;
  !total

let snapshot t =
  let peak = ref 0 in
  for i = 0 to t.n - 1 do
    if t.peaks.(i * stride) > !peak then peak := t.peaks.(i * stride)
  done;
  {
    acquires = sum_slots t t.acquires;
    resets = sum_slots t t.resets;
    gate_spins = sum_slots t t.gate_spins;
    peak_ticket = !peak;
  }

let bound t = t.m
let nprocs t = t.n

let stats t =
  let s = snapshot t in
  [
    ("acquires", s.acquires);
    ("resets", s.resets);
    ("gate_spins", s.gate_spins);
    ("peak_ticket", s.peak_ticket);
  ]
