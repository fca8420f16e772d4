module A = Registers.Atomic_array

(* pid + 1 is stored in x and y so 0 means "empty". *)
type t = {
  nprocs : int;
  b : A.t;
  x : int Atomic.t;
  y : int Atomic.t;
  slow : int Atomic.t;
}

let name = "fast_mutex"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Fast_mutex_lock.create: nprocs must be >= 1";
  {
    nprocs;
    b = A.create nprocs 0;
    x = Atomic.make 0;
    y = Atomic.make 0;
    slow = Atomic.make 0;
  }

let acquire t i =
  let me = i + 1 and b = t.b.A.regs in
  let rec start () =
    Atomic.set b.(i) 1;
    Atomic.set t.x me;
    if Atomic.get t.y <> 0 then begin
      Atomic.set b.(i) 0;
      while Atomic.get t.y <> 0 do
        Registers.Spin.relax ()
      done;
      start ()
    end
    else begin
      Atomic.set t.y me;
      if Atomic.get t.x <> me then begin
        (* Contention: take the slow path. *)
        Atomic.incr t.slow;
        Atomic.set b.(i) 0;
        for j = 0 to t.nprocs - 1 do
          while Atomic.get b.(j) <> 0 do
            Registers.Spin.relax ()
          done
        done;
        if Atomic.get t.y <> me then begin
          while Atomic.get t.y <> 0 do
            Registers.Spin.relax ()
          done;
          start ()
        end
      end
    end
  in
  start ()

let release t i =
  Atomic.set t.y 0;
  Atomic.set t.b.A.regs.(i) 0

let space_words t = A.words t.b + 2

let slow_paths t = Atomic.get t.slow

let stats t = [ ("slow_paths", slow_paths t) ]
