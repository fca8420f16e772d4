let stride = 8

type t = { regs : int Atomic.t array; boxes : int Atomic.t array }

let create n v =
  if n < 0 then invalid_arg "Atomic_array.create: negative length";
  let boxes = Array.init (n * stride) (fun _ -> Atomic.make v) in
  { regs = Array.init n (fun i -> boxes.(i * stride)); boxes }

let max_of t =
  let best = ref 0 in
  for i = 0 to Array.length t.regs - 1 do
    let v = Atomic.get t.regs.(i) in
    if v > !best then best := v
  done;
  !best

let words t = Array.length t.regs
