module A = Registers.Atomic_array

type t = { nprocs : int; level : A.t; victim : A.t }

let name = "filter"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Filter_lock_rt.create: nprocs must be >= 1";
  { nprocs; level = A.create nprocs 0; victim = A.create nprocs 0 }

let acquire t i =
  let level = t.level.A.regs and victim = t.victim.A.regs in
  for l = 1 to t.nprocs - 1 do
    Atomic.set level.(i) l;
    Atomic.set victim.(l) i;
    let rec wait () =
      if Atomic.get victim.(l) = i then begin
        let someone_above = ref false in
        for k = 0 to t.nprocs - 1 do
          if k <> i && Atomic.get level.(k) >= l then someone_above := true
        done;
        if !someone_above then begin
          Registers.Spin.relax ();
          wait ()
        end
      end
    in
    wait ()
  done

let release t i = Atomic.set t.level.A.regs.(i) 0

let space_words t = A.words t.level + A.words t.victim

let stats _ = []
