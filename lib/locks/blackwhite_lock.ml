module A = Registers.Atomic_array

type t = {
  nprocs : int;
  color : int Atomic.t;
  choosing : A.t;
  mycolor : A.t;
  number : A.t;
  peak : int Atomic.t;
}

let name = "black_white_bakery"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Blackwhite_lock.create: nprocs must be >= 1";
  {
    nprocs;
    color = Atomic.make 0;
    choosing = A.create nprocs 0;
    mycolor = A.create nprocs 0;
    number = A.create nprocs 0;
    peak = Atomic.make 0;
  }

let rec bump_peak t v =
  let current = Atomic.get t.peak in
  if v > current && not (Atomic.compare_and_set t.peak current v) then
    bump_peak t v

let before a i b j = a < b || (a = b && i < j)

let acquire t i =
  let choosing = t.choosing.A.regs
  and mycolor = t.mycolor.A.regs
  and number = t.number.A.regs in
  Atomic.set choosing.(i) 1;
  let mc = Atomic.get t.color in
  Atomic.set mycolor.(i) mc;
  (* maximum over same-colored tickets only *)
  let mx = ref 0 in
  for j = 0 to t.nprocs - 1 do
    if Atomic.get mycolor.(j) = mc then begin
      let nj = Atomic.get number.(j) in
      if nj > !mx then mx := nj
    end
  done;
  let ticket = !mx + 1 in
  Atomic.set number.(i) ticket;
  Atomic.set choosing.(i) 0;
  bump_peak t ticket;
  for j = 0 to t.nprocs - 1 do
    if j <> i then begin
      while Atomic.get choosing.(j) <> 0 do
        Registers.Spin.relax ()
      done;
      (* Loops, not local closures: the pair allocates nothing. *)
      let waiting = ref true in
      while !waiting do
        let nj = Atomic.get number.(j) in
        if nj = 0 then waiting := false
        else begin
          let pass =
            if Atomic.get mycolor.(j) = mc then not (before nj j ticket i)
            else Atomic.get t.color <> mc
          in
          if pass then waiting := false else Registers.Spin.relax ()
        end
      done
    end
  done

let release t i =
  (* Flip the shared color away from my color, then retire the ticket —
     Taubenfeld's exit order. *)
  Atomic.set t.color (1 - Atomic.get t.mycolor.A.regs.(i));
  Atomic.set t.number.A.regs.(i) 0

let space_words t =
  1 + A.words t.choosing + A.words t.mycolor + A.words t.number

let peak_ticket t = Atomic.get t.peak

let stats t = [ ("peak_ticket", peak_ticket t) ]
