module A = Registers.Atomic_array

type t = { nprocs : int; flag : A.t }

let name = "burns_lynch"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Burns_lynch_lock.create: nprocs must be >= 1";
  { nprocs; flag = A.create nprocs 0 }

let lower_raised t i =
  let rec scan j = j < i && (Atomic.get t.flag.A.regs.(j) = 1 || scan (j + 1)) in
  scan 0

let acquire t i =
  let flag = t.flag.A.regs in
  let rec attempt () =
    Atomic.set flag.(i) 0;
    if lower_raised t i then begin
      Registers.Spin.relax ();
      attempt ()
    end
    else begin
      Atomic.set flag.(i) 1;
      if lower_raised t i then begin
        Registers.Spin.relax ();
        attempt ()
      end
      else
        for j = i + 1 to t.nprocs - 1 do
          while Atomic.get flag.(j) = 1 do
            Registers.Spin.relax ()
          done
        done
    end
  in
  attempt ()

let release t i = Atomic.set t.flag.A.regs.(i) 0

let space_words t = A.words t.flag

let stats _ = []
