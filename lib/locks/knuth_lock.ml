module A = Registers.Atomic_array

let idle = 0
let requesting = 1
let active = 2

type t = { nprocs : int; control : A.t; k : int Atomic.t }

let name = "knuth"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Knuth_lock.create: nprocs must be >= 1";
  { nprocs; control = A.create nprocs idle; k = Atomic.make 0 }

let acquire t i =
  let n = t.nprocs and control = t.control.A.regs in
  let rec attempt () =
    Atomic.set control.(i) requesting;
    (* Walk from k downward (cyclically) to self, deferring to busy
       processes. *)
    let rec walk j =
      if j <> i then
        if Atomic.get control.(j) <> idle then begin
          Registers.Spin.relax ();
          walk (Atomic.get t.k)
        end
        else walk ((j + n - 1) mod n)
    in
    walk (Atomic.get t.k);
    Atomic.set control.(i) active;
    let rec someone_else_active j =
      j < n
      && ((j <> i && Atomic.get control.(j) = active) || someone_else_active (j + 1))
    in
    if someone_else_active 0 then begin
      Registers.Spin.relax ();
      attempt ()
    end
    else Atomic.set t.k i
  in
  attempt ()

let release t i =
  Atomic.set t.k ((i + t.nprocs - 1) mod t.nprocs);
  Atomic.set t.control.A.regs.(i) idle

let space_words t = A.words t.control + 1

let stats _ = []
