(* The benchmark's measuring program; run.py drives it.

     perfbench.exe rep WORKLOAD SEED          one untraced repetition
     perfbench.exe trace WORKLOAD SEED SPANS  the traced run
     perfbench.exe hostref                    the host reference, ns

   Each prints one JSON object on one line.  A repetition runs in a
   process of its own so that its peak resident memory is its own. *)

open Perfbench_lib
module M = Modelcheck
module W = Workloads

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let str s = Printf.sprintf "%S" s

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let print_sample (s : W.sample) =
  print_endline
    (obj
       [
         ("setup_s", "[" ^ String.concat "," (List.map num s.setup_s) ^ "]");
         ("wall_s", num s.wall_s);
         ("cpu_s", num s.cpu_s);
         ("ops", string_of_int s.ops);
         ("peak_rss_mb", num s.peak_rss_mb);
         ("attempted", string_of_int s.attempted);
         ("failed", string_of_int s.failed);
         ("error", match s.error with None -> "null" | Some e -> str e);
       ])

(* ---- the traced run ---- *)

(* Every per-layer metric, in BENCHMARK.json order.  A layer the
   workload does not use reports 0: that is its bypass reading. *)
let per_layer =
  [
    "system.step_s"; "system.moves_per_state"; "fingerprint.hash_ns";
    "store.dedup_s"; "store.dup_frac"; "store.arena_mb"; "invariant.check_s";
    "explore.driver_s"; "explore.waves"; "weak.wall_s"; "weak.step_s";
    "weak.moves_per_state"; "reduce.ample_s"; "reduce.ample_hit_frac"; "pool.busy_frac_min"; "pool.busy_frac_max";
    "pool.barrier_us"; "par.cpu_over_wall"; "deque.push_pop_ns";
    "deque.steal_ns"; "shard_table.insert_ns"; "shard_table.bytes_per_state";
    "gc.minor_words_per_op"; "gc.major_collections"; "gc.top_heap_mb";
    "lock.ns_per_op.bakery_pp"; "lock.ns_per_op.bakery"; "lock.pp_over_bakery";
    "lock.acquires"; "lock.resets"; "lock.gate_spins"; "lock.peak_ticket";
    "host.ref_ns"; "trace.overhead";
  ]

type traced = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  metrics : (string, float) Hashtbl.t;
}

let set t k v =
  if not (List.mem k per_layer) then invalid_arg ("unknown metric " ^ k);
  Hashtbl.replace t.metrics k v

let verify t ~attempted = function
  | Ok () -> t.attempted <- t.attempted + attempted
  | Error e ->
      t.attempted <- t.attempted + attempted;
      t.failed <- t.failed + attempted;
      t.errors <- e :: t.errors

let verify_sample t (s : W.sample) =
  verify t ~attempted:s.attempted
    (match s.error with None -> Ok () | Some e -> Error e)

let same_counts what (r : M.Explore.stats) ~distinct ~generated ~depth =
  if r.distinct = distinct && r.generated = generated && r.depth = depth then
    Ok ()
  else
    Error
      (Printf.sprintf "%s counted %d/%d/%d, the untraced run %d/%d/%d" what
         distinct generated depth r.distinct r.generated r.depth)

let gc_metrics t (s : W.sample) =
  set t "gc.minor_words_per_op" (s.minor_words /. float_of_int s.ops);
  set t "gc.major_collections" (float_of_int s.major_collections);
  set t "gc.top_heap_mb" s.top_heap_mb

(* Replays [c]'s system (see replay.ml), writes its spans under [leg],
   and checks that it counted what the untraced check [r] counted and
   that its layer spans nest inside its waves. *)
let replay t (c : W.checker) sys (r : M.Explore.result) ~leg ~oc =
  let rp = Replay.run ~reduce:c.reduce sys in
  Replay.write_spans rp ~leg oc;
  let counted =
    match rp.problem with
    | Some e -> Error ("replay met " ^ e)
    | None ->
        same_counts (leg ^ " replay") r.stats ~distinct:rp.distinct
          ~generated:rp.generated ~depth:rp.depth
  in
  let layers = List.map (Replay.layer_s rp) Replay.layers in
  let waves =
    List.fold_left
      (fun acc (s : Replay.span) ->
        if s.name = "wave" then acc +. (s.t1 -. s.t0) else acc)
      0.0 rp.spans
  in
  let nested =
    if List.fold_left ( +. ) 0.0 layers <= waves && waves <= rp.total_s then
      Ok ()
    else Error (leg ^ " replay layer spans exceed their waves or the total")
  in
  verify t ~attempted:1 (Result.bind counted (fun () -> nested));
  rp

let moves_per_state (rp : Replay.t) =
  float_of_int (rp.generated - 1) /. float_of_int rp.expanded

let trace_replay t c sys r ~wall ~oc =
  let rp = replay t c sys r ~leg:"seq" ~oc in
  let gen = float_of_int rp.generated in
  set t "system.step_s" (Replay.layer_s rp "step");
  set t "system.moves_per_state" (moves_per_state rp);
  set t "fingerprint.hash_ns" (Replay.layer_s rp "hash" /. gen *. 1e9);
  set t "store.dedup_s" (Replay.layer_s rp "dedup");
  set t "store.dup_frac" (1.0 -. (float_of_int rp.distinct /. gen));
  set t "store.arena_mb" (float_of_int rp.arena_bytes /. 1048576.0);
  set t "invariant.check_s" (Replay.layer_s rp "invariant");
  set t "explore.driver_s" (Replay.driver_s rp);
  set t "explore.waves" (float_of_int rp.waves);
  set t "trace.overhead" (rp.total_s /. wall)

(* The weak-register leg: {!Workloads.weak_leg} checked untraced, then
   replayed.  Its step phase runs Regsem's flicker enumeration, and
   [Reduce.ample] finds ample processes only here. *)
let trace_weak t ~oc =
  let c = W.weak_leg in
  let s, r = W.rep_checker c in
  verify_sample t s;
  set t "weak.wall_s" s.wall_s;
  Gc.compact ();
  let rp = replay t c (W.setup c) r ~leg:"weak" ~oc in
  set t "weak.step_s" (Replay.layer_s rp "step");
  set t "weak.moves_per_state" (moves_per_state rp);
  set t "reduce.ample_s" (Replay.layer_s rp "ample");
  set t "reduce.ample_hit_frac"
    (float_of_int rp.ample_hits /. float_of_int rp.expanded)

(* The parallel leg: the same system checked by the sharded explorer,
   fingerprint-only, on a pool of [par_domains] domains (one per core
   of the 2-core hosts the benchmark is sized for), with the explorer's
   own metrics registry on.  Pool counters are read around that check, and the
   parallel layers are timed over the first [sample_states] states of
   the system's BFS.  It is not an end-to-end workload: see NOTES.md. *)
let par_domains = 2
let sample_states = 1 lsl 17

let trace_parallel t (c : W.checker) sys =
  M.Pool.with_pool par_domains (fun pool ->
      let busy0 = M.Pool.busy_ns pool in
      let c0 = Clock.cpu () and t0 = Clock.now () in
      let r =
        M.Par_explore.run ~pool ~fingerprint_only:true ~reduce:c.reduce
          ~metrics:(Telemetry.Metrics.create ()) sys
      in
      let wall = Clock.now () -. t0 and cpu = Clock.cpu () -. c0 in
      let busy =
        Array.map2
          (fun b0 b1 -> float_of_int (b1 - b0) /. (wall *. 1e9))
          busy0 (M.Pool.busy_ns pool)
      in
      verify t ~attempted:1 (W.checker_verdict c r);
      set t "pool.busy_frac_min" (Array.fold_left min infinity busy);
      set t "pool.busy_frac_max" (Array.fold_left max 0.0 busy);
      set t "par.cpu_over_wall" (cpu /. wall);
      set t "pool.barrier_us" (Micro.barrier_us pool));
  let states = Micro.bfs_prefix sys ~count:sample_states in
  set t "deque.push_pop_ns" (Micro.deque_push_pop_ns states);
  set t "deque.steal_ns" (Micro.deque_steal_ns states);
  let insert_ns, bytes =
    Micro.shard_table ~words:(M.System.layout sys).M.State.words states
  in
  set t "shard_table.insert_ns" insert_ns;
  set t "shard_table.bytes_per_state" bytes

(* Lock batches: ten per lock, alternating, with the repetition's op
   count split between them. *)
let lock_batches = 10

let trace_lock t (l : W.lock) ~seed =
  let s, inst, pids = W.rep_lock l ~seed in
  verify_sample t s;
  gc_metrics t s;
  List.iter
    (fun k -> set t ("lock." ^ k) (float_of_int (W.stat inst k)))
    [ "acquires"; "resets"; "gate_spins"; "peak_ticket" ];
  let pp = W.make_lock l.family l and base = W.make_lock l.baseline l in
  let pairs = l.pairs / lock_batches in
  let pp_ns, base_ns = Micro.lock_ns_per_op ~batches:lock_batches ~pairs pids pp base in
  verify t ~attempted:(lock_batches * pairs)
    (W.lock_verdict l pp ~issued:(lock_batches * pairs));
  set t "lock.ns_per_op.bakery_pp" pp_ns;
  set t "lock.ns_per_op.bakery" base_ns;
  set t "lock.pp_over_bakery" (pp_ns /. base_ns);
  set t "trace.overhead" (pp_ns *. float_of_int l.pairs *. 1e-9 /. s.wall_s)

let trace wl ~seed ~spans =
  let t = { attempted = 0; failed = 0; errors = []; metrics = Hashtbl.create 64 } in
  List.iter (fun k -> set t k 0.0) per_layer;
  let ref0 = Clock.host_ref_ns () in
  (match wl with
  | W.Lock l -> trace_lock t l ~seed
  | W.Checker c ->
      let s, r = W.rep_checker c in
      verify_sample t s;
      gc_metrics t s;
      Gc.compact ();
      let sys = W.setup c in
      let oc = open_out spans in
      trace_replay t c sys r ~wall:s.wall_s ~oc;
      Gc.compact ();
      trace_parallel t c sys;
      Gc.compact ();
      trace_weak t ~oc;
      close_out oc);
  set t "host.ref_ns" ((ref0 +. Clock.host_ref_ns ()) /. 2.0);
  print_endline
    (obj
       [
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ("errors", "[" ^ String.concat "," (List.rev_map str t.errors) ^ "]");
         ( "metrics",
           obj (List.map (fun k -> (k, num (Hashtbl.find t.metrics k))) per_layer) );
       ])

let usage () =
  prerr_endline
    "usage: perfbench.exe rep WORKLOAD SEED | trace WORKLOAD SEED SPANS | hostref";
  exit 2

let workload name =
  match W.find name with
  | Some w -> w
  | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2

let seed s = match int_of_string_opt s with Some n -> n | None -> usage ()

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "rep"; name; s ] -> (
      let seed = seed s in
      match workload name with
      | W.Checker c -> print_sample (fst (W.rep_checker c))
      | W.Lock l ->
          let s, _, _ = W.rep_lock l ~seed in
          print_sample s)
  | [ "trace"; name; s; spans ] -> trace (workload name) ~seed:(seed s) ~spans
  | [ "hostref" ] -> print_endline (num (Clock.host_ref_ns ()))
  | _ -> usage ()
