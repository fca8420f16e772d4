(* Per-domain event rings for runtime lock forensics.

   The lock zoo runs on real OCaml 5 domains, so tracing must not
   serialise the contenders it is observing: each participant records
   into its own preallocated int ring (two array stores and an
   increment, no allocation, no synchronisation), and the rings are
   merged into one time-sorted log only after the run.  When a ring
   overflows, the oldest entries are overwritten — forensics favours the
   end of the run, where the interesting contention usually is. *)

type op = Acquire_start | Acquired | Released

let op_code = function Acquire_start -> 0 | Acquired -> 1 | Released -> 2
let op_of_code = function 0 -> Acquire_start | 1 -> Acquired | _ -> Released

type entry = { e_t_ns : int; e_pid : int; e_op : op }

type t = {
  nprocs : int;
  capacity : int;
  ops : int array array;  (* per pid: op codes *)
  ts : int array array;  (* per pid: Clock.now_ns stamps *)
  count : int array;  (* per pid: total records (may exceed capacity) *)
}

let create ?(capacity = 4096) ~nprocs () =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    nprocs;
    capacity;
    ops = Array.init nprocs (fun _ -> Array.make capacity 0);
    ts = Array.init nprocs (fun _ -> Array.make capacity 0);
    count = Array.make nprocs 0;
  }

let record t ~pid op =
  let i = t.count.(pid) mod t.capacity in
  t.ops.(pid).(i) <- op_code op;
  t.ts.(pid).(i) <- Telemetry.Clock.now_ns ();
  t.count.(pid) <- t.count.(pid) + 1

let dropped t =
  Array.fold_left
    (fun acc c -> acc + max 0 (c - t.capacity))
    0 t.count

(* Order of records with equal stamps: a [Released] first, because the
   releasing store precedes the [Acquired] it enables even when the
   clock cannot tell them apart; an [Acquired] last. *)
let tie_rank = function Released -> 0 | Acquire_start -> 1 | Acquired -> 2

(* A k-way merge of the per-pid rings.  Each ring is in program order
   and its stamps never decrease, so the merge keeps every pid's
   records in program order, which a sort over all records with a pid
   tie-break does not.  Two [Acquired] with one stamp are ordered by
   the stamps of the [Released] that follow them: under mutual
   exclusion the first holder released before the second acquired, so
   at that same stamp, while the second releases no earlier. *)
let flush t =
  let ring pid =
    let n = min t.count.(pid) t.capacity in
    let first = t.count.(pid) - n in
    Array.init n (fun k ->
        let i = (first + k) mod t.capacity in
        {
          e_t_ns = t.ts.(pid).(i);
          e_pid = pid;
          e_op = op_of_code t.ops.(pid).(i);
        })
  in
  let rings = Array.init t.nprocs ring in
  let next = Array.make t.nprocs 0 in
  let head pid = rings.(pid).(next.(pid)) in
  let after_head pid =
    let k = next.(pid) + 1 in
    if k < Array.length rings.(pid) then rings.(pid).(k).e_t_ns else max_int
  in
  let before p q =
    let a = head p and b = head q in
    if a.e_t_ns <> b.e_t_ns then a.e_t_ns < b.e_t_ns
    else if a.e_op <> b.e_op then tie_rank a.e_op < tie_rank b.e_op
    else if a.e_op = Acquired && after_head p <> after_head q then
      after_head p < after_head q
    else p < q
  in
  let total = Array.fold_left (fun acc r -> acc + Array.length r) 0 rings in
  let merged = ref [] in
  for _ = 1 to total do
    let best = ref (-1) in
    for pid = 0 to t.nprocs - 1 do
      if
        next.(pid) < Array.length rings.(pid)
        && (!best < 0 || before pid !best)
      then best := pid
    done;
    merged := head !best :: !merged;
    next.(!best) <- next.(!best) + 1
  done;
  List.rev !merged

(* Wrap an instance so every acquire/release leaves ring records.
   [Released] is stamped *before* the release call: the successor's
   [Acquired] stamp is taken after its acquire returns, so a
   released-then-acquired pair is ordered released < acquired whenever
   the lock actually changed hands. *)
let wrap t (inst : Lock_intf.instance) =
  {
    inst with
    acquire =
      (fun pid ->
        record t ~pid Acquire_start;
        inst.acquire pid;
        record t ~pid Acquired);
    release =
      (fun pid ->
        record t ~pid Released;
        inst.release pid);
  }
