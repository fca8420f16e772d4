module A = Registers.Atomic_array

type t = {
  nprocs : int;
  flags : A.t; (* flags.(s) = 1 means slot s may enter *)
  tail : int Atomic.t;
  my_slot : int array; (* strided, one writer each *)
}

let stride = 8

let name = "anderson"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Anderson_lock.create: nprocs must be >= 1";
  let flags = A.create nprocs 0 in
  Atomic.set flags.A.regs.(0) 1;
  { nprocs; flags; tail = Atomic.make 0; my_slot = Array.make (nprocs * stride) 0 }

let acquire t i =
  let slot = Atomic.fetch_and_add t.tail 1 mod t.nprocs in
  t.my_slot.(i * stride) <- slot;
  while Atomic.get t.flags.A.regs.(slot) = 0 do
    Registers.Spin.relax ()
  done

let release t i =
  let slot = t.my_slot.(i * stride) in
  Atomic.set t.flags.A.regs.(slot) 0;
  Atomic.set t.flags.A.regs.((slot + 1) mod t.nprocs) 1

let space_words t = A.words t.flags + 1

let stats _ = []
