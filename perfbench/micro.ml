(* Per-layer timings that are not a replay: the parallel explorer's
   building blocks driven over the workload's own states, and the
   runtime locks driven in batches.  Each figure is the median over
   [passes] passes, in nanoseconds per item unless named otherwise. *)

module M = Modelcheck

let passes = 5

let ns_per_item ~items f =
  Clock.median
    (List.init passes (fun _ ->
         let t0 = Clock.now () in
         f ();
         (Clock.now () -. t0) /. float_of_int items *. 1e9))

(* The first [count] distinct states of the system in BFS order. *)
let bfs_prefix sys ~count =
  let w = (M.System.layout sys).M.State.words in
  let store = M.Store.create () in
  let cur = Array.make w 0 and scratch = Array.make w 0 in
  ignore (M.Store.add store (M.System.initial sys));
  let head = ref 0 in
  while !head < M.Store.length store && M.Store.length store < count do
    M.Store.read_into store !head cur;
    incr head;
    M.System.iter_successors_scratch sys cur ~scratch
      (fun ~pid:_ ~from_pc:_ ~alt:_ ~flick:_ ->
        if M.Store.length store < count && M.Store.probe store scratch = -1
        then ignore (M.Store.add_probed store scratch))
  done;
  Array.init (M.Store.length store) (M.Store.get store)

(* Owner-side push then pop of every state: ns per push+pop pair. *)
let deque_push_pop_ns states =
  let d = M.Deque.create () and slot = M.Deque.slot () in
  ns_per_item ~items:(Array.length states) (fun () ->
      Array.iteri (fun i s -> M.Deque.push d i s) states;
      while M.Deque.pop d slot do
        ()
      done)

(* Thief-side batch steals (the explorer's batch size) until the deque
   is empty: ns per stolen item.  The pushes are not timed. *)
let deque_steal_ns states =
  let max = 64 in
  let d = M.Deque.create () in
  let gids = Array.make max 0 and stolen = Array.make max [||] in
  Clock.median
    (List.init passes (fun _ ->
         Array.iteri (fun i s -> M.Deque.push d i s) states;
         let t0 = Clock.now () in
         while M.Deque.steal d ~gids ~states:stolen ~max > 0 do
           ()
         done;
         (Clock.now () -. t0) /. float_of_int (Array.length states) *. 1e9))

(* Fingerprint-only inserts into a fresh two-shard table per pass, with
   fingerprints computed beforehand: ns per insert, and the table's
   bytes per stored state. *)
let shard_table ~words states =
  let mk () = M.Shard_table.create ~mode:M.Shard_table.Fp_only ~nshards:2 ~words () in
  let fps = Array.map (M.Shard_table.fingerprint (mk ())) states in
  let last = ref (mk ()) in
  let ns =
    ns_per_item ~items:(Array.length states) (fun () ->
        let t = mk () in
        Array.iteri
          (fun i s ->
            let fp = fps.(i) in
            ignore (M.Shard_table.insert t ~shard:(M.Shard_table.owner t fp) ~fp s))
          states;
        last := t)
  in
  let t = !last in
  (ns, float_of_int (M.Shard_table.memory_bytes t) /. float_of_int (M.Shard_table.total t))

(* Round trip of an empty job through the pool: median microseconds. *)
let barrier_us pool =
  let once () =
    let t0 = Clock.now () in
    M.Pool.run pool (fun _ -> ());
    (Clock.now () -. t0) *. 1e6
  in
  for _ = 1 to 100 do
    ignore (once ())
  done;
  Clock.median (List.init 2000 (fun _ -> once ()))

(* Batches of acquire/release pairs, alternating between the two locks
   so host drift hits both alike: median ns per pair of each. *)
let lock_ns_per_op ~batches ~pairs pids (a : Locks.Lock_intf.instance)
    (b : Locks.Lock_intf.instance) =
  let batch inst =
    let t0 = Clock.now () in
    Workloads.round_robin inst pids ~pairs;
    (Clock.now () -. t0) /. float_of_int pairs *. 1e9
  in
  let samples = List.init batches (fun _ -> (batch a, batch b)) in
  (Clock.median (List.map fst samples), Clock.median (List.map snd samples))
