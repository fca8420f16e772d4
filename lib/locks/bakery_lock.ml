module A = Registers.Atomic_array

type t = {
  nprocs : int;
  choosing : A.t;
  number : A.t;
  peak : int Atomic.t;
}

let name = "bakery"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Bakery_lock.create: nprocs must be >= 1";
  {
    nprocs;
    choosing = A.create nprocs 0;
    number = A.create nprocs 0;
    peak = Atomic.make 0;
  }

let rec bump_peak t v =
  let current = Atomic.get t.peak in
  if v > current && not (Atomic.compare_and_set t.peak current v) then
    bump_peak t v

(* Ticket order: (a, i) before (b, j) iff a < b or (a = b and i < j). *)
let before a i b j = a < b || (a = b && i < j)

let acquire t i =
  let choosing = t.choosing.A.regs and number = t.number.A.regs in
  Atomic.set choosing.(i) 1;
  let ticket = 1 + A.max_of t.number in
  Atomic.set number.(i) ticket;
  Atomic.set choosing.(i) 0;
  bump_peak t ticket;
  for j = 0 to t.nprocs - 1 do
    while Atomic.get choosing.(j) <> 0 do
      Registers.Spin.relax ()
    done;
    (* A loop, not a local closure: the pair allocates nothing. *)
    let nj = ref (Atomic.get number.(j)) in
    while !nj <> 0 && before !nj j ticket i do
      Registers.Spin.relax ();
      nj := Atomic.get number.(j)
    done
  done

let release t i = Atomic.set t.number.A.regs.(i) 0

let space_words t = A.words t.choosing + A.words t.number

let peak_ticket t = Atomic.get t.peak

let stats t = [ ("peak_ticket", peak_ticket t) ]
