module A = Registers.Atomic_array

let idle = 0
let waiting = 1
let active = 2

type t = { nprocs : int; flag : A.t; turn : int Atomic.t }

let name = "eisenberg_mcguire"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Eisenberg_lock.create: nprocs must be >= 1";
  { nprocs; flag = A.create nprocs idle; turn = Atomic.make 0 }

let acquire t i =
  let n = t.nprocs and flag = t.flag.A.regs in
  let rec attempt () =
    Atomic.set flag.(i) waiting;
    (* Walk from the turn to self, deferring to busy processes. *)
    let rec walk idx =
      if idx <> i then
        if Atomic.get flag.(idx) <> idle then begin
          Registers.Spin.relax ();
          walk (Atomic.get t.turn)
        end
        else walk ((idx + 1) mod n)
    in
    walk (Atomic.get t.turn);
    Atomic.set flag.(i) active;
    (* Are we the only active process? *)
    let rec solo idx =
      idx >= n || ((idx = i || Atomic.get flag.(idx) <> active) && solo (idx + 1))
    in
    if
      solo 0
      && (Atomic.get t.turn = i || Atomic.get flag.(Atomic.get t.turn) = idle)
    then Atomic.set t.turn i
    else begin
      Registers.Spin.relax ();
      attempt ()
    end
  in
  attempt ()

let release t i =
  let n = t.nprocs and flag = t.flag.A.regs in
  (* Pass the turn to the next non-idle process (self if none). *)
  let rec scan j = if Atomic.get flag.(j) = idle then scan ((j + 1) mod n) else j in
  Atomic.set t.turn (scan ((Atomic.get t.turn + 1) mod n));
  Atomic.set flag.(i) idle

let space_words t = A.words t.flag + 1

let stats _ = []
