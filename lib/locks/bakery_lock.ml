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
  A.set t.choosing i 1;
  let ticket = 1 + A.max_of t.number in
  A.set t.number i ticket;
  A.set t.choosing i 0;
  bump_peak t ticket;
  for j = 0 to t.nprocs - 1 do
    while A.get t.choosing j <> 0 do
      Registers.Spin.relax ()
    done;
    (* A loop, not a local closure: the pair allocates nothing. *)
    let nj = ref (A.get t.number j) in
    while !nj <> 0 && before !nj j ticket i do
      Registers.Spin.relax ();
      nj := A.get t.number j
    done
  done

let release t i = A.set t.number i 0

let space_words t = A.words t.choosing + A.words t.number

let peak_ticket t = Atomic.get t.peak

let stats t = [ ("peak_ticket", peak_ticket t) ]
