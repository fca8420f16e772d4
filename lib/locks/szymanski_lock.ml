module A = Registers.Atomic_array

type t = { nprocs : int; flag : A.t }

let name = "szymanski"

let create ~nprocs ~bound:_ =
  if nprocs < 1 then invalid_arg "Szymanski_lock.create: nprocs must be >= 1";
  { nprocs; flag = A.create nprocs 0 }

let spin_until cond =
  while not (cond ()) do
    Registers.Spin.relax ()
  done

let acquire t i =
  let flag = t.flag.A.regs in
  Atomic.set flag.(i) 1;
  spin_until (fun () ->
      let rec ok j = j >= t.nprocs || (Atomic.get flag.(j) < 3 && ok (j + 1)) in
      ok 0);
  Atomic.set flag.(i) 3;
  let intent_waiting =
    let rec scan j =
      j < t.nprocs && ((j <> i && Atomic.get flag.(j) = 1) || scan (j + 1))
    in
    scan 0
  in
  if intent_waiting then begin
    Atomic.set flag.(i) 2;
    spin_until (fun () ->
        let rec scan j = j < t.nprocs && (Atomic.get flag.(j) = 4 || scan (j + 1)) in
        scan 0)
  end;
  Atomic.set flag.(i) 4;
  spin_until (fun () ->
      let rec ok j = j >= i || (Atomic.get flag.(j) < 2 && ok (j + 1)) in
      ok 0)

let release t i =
  let flag = t.flag.A.regs in
  spin_until (fun () ->
      let rec ok j =
        j >= t.nprocs
        ||
        let f = Atomic.get flag.(j) in
        (f < 2 || f > 3) && ok (j + 1)
      in
      ok (i + 1));
  Atomic.set flag.(i) 0

let space_words t = A.words t.flag

let stats _ = []
