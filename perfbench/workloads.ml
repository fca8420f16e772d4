(* The benchmark's workloads, their set-up, one untraced repetition each,
   and the check of every result against its expected value.

   The checker systems are exhaustive and seed-independent; their
   expected counts below are the verdicts the checker has produced since
   the compiled engine landed, and any drift is a bug, not noise.
   [lock_rr] takes the seed: it fixes the order in which pids take the
   lock.  Why each workload exists is recorded in NOTES.md and in
   BENCHMARK.json. *)

module M = Modelcheck

type expect = { distinct : int; generated : int; depth : int }

type checker = {
  model : string;
  nprocs : int;
  bound : int;
  register_model : Regsem.Model.t;
  reduce : M.Reduce.mode;
  expect : expect;
}

type lock = {
  family : string;
  baseline : string;  (** the lock the traced run compares against *)
  lnprocs : int;
  lbound : int;
  pairs : int;  (** acquire/release pairs per repetition *)
}

type t = Checker of checker | Lock of lock

let all =
  [
    ( "check_seq",
      Checker
        {
          model = "bakery_pp";
          nprocs = 4;
          bound = 2;
          register_model = Regsem.Model.Atomic;
          reduce = M.Reduce.Off;
          expect = { distinct = 2_130_895; generated = 7_532_203; depth = 128 };
        } );
    ( "lock_rr",
      Lock
        {
          family = "bakery_pp";
          baseline = "bakery";
          lnprocs = 8;
          lbound = 255;
          pairs = 2_000_000;
        } );
  ]

let find name = List.assoc_opt name all

(* Not a workload of its own (NOTES.md says why): the traced run of
   [check_seq] also checks and replays this weak-register system, so
   that Regsem and Reduce keep per-layer numbers. *)
let weak_leg =
  {
    model = "bakery_pp";
    nprocs = 3;
    bound = 4;
    register_model = Regsem.Model.Safe;
    reduce = M.Reduce.Sym_por;
    expect = { distinct = 994_003; generated = 3_497_133; depth = 108 };
  }

(* Set-up is sampled this many times per repetition and reported as
   the median.  One sample times a batch of set-ups and gives the time
   per set-up: a single one takes one (a lock) to tens (a checker) of
   microseconds, too close to the clock's resolution.  The batches
   make a sample about a millisecond. *)
let setup_samples = 101
let checker_setup_batch = 40
let lock_make_batch = 500

(* ---- checkers ---- *)

let setup c =
  let program = Harness.Registry.find_model c.model in
  let sys =
    M.System.make ~register_model:c.register_model program ~nprocs:c.nprocs
      ~bound:c.bound
  in
  if c.reduce <> M.Reduce.Off then ignore (M.Reduce.make c.reduce sys);
  sys

let check c sys = M.Explore.run ~reduce:c.reduce sys

let checker_verdict c (r : M.Explore.result) =
  let s = r.stats and e = c.expect in
  if
    r.outcome = M.Explore.Pass && s.distinct = e.distinct
    && s.generated = e.generated && s.depth = e.depth
  then Ok ()
  else
    Error
      (Printf.sprintf
         "%s with %d distinct, %d generated, depth %d; expected pass with %d, \
          %d, %d"
         (M.Explore.outcome_tag r.outcome)
         s.distinct s.generated s.depth e.distinct e.generated e.depth)

(* ---- lock ---- *)

(* The pid visiting order: 2^16 pids drawn from the seed, cycled. *)
let pid_order ~seed ~nprocs =
  let st = Random.State.make [| seed |] in
  Array.init 65536 (fun _ -> Random.State.int st nprocs)

let make_lock name l =
  (Harness.Registry.find_family name).Locks.Lock_intf.make ~nprocs:l.lnprocs
    ~bound:l.lbound

let round_robin (inst : Locks.Lock_intf.instance) pids ~pairs =
  let mask = Array.length pids - 1 in
  for k = 0 to pairs - 1 do
    let pid = Array.unsafe_get pids (k land mask) in
    inst.acquire pid;
    inst.release pid
  done

let stat inst key =
  match List.assoc_opt key (inst.Locks.Lock_intf.stats ()) with
  | Some v -> v
  | None -> failwith ("lock stats lack " ^ key)

(* [acquires] is cumulative over the instance, so the caller passes the
   total it has issued. *)
let lock_verdict l inst ~issued =
  let acquires = stat inst "acquires" and peak = stat inst "peak_ticket" in
  if acquires = issued && peak <= l.lbound then Ok ()
  else
    Error
      (Printf.sprintf "acquires %d for %d issued, peak ticket %d (M = %d)"
         acquires issued peak l.lbound)

(* ---- one untraced repetition ---- *)

type sample = {
  setup_s : float list;  (** every set-up sample of this repetition *)
  wall_s : float;
  cpu_s : float;
  ops : int;  (** distinct states stored, or acquire/release pairs *)
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  error : string option;
  minor_words : float;  (** allocated by the timed section *)
  major_collections : int;
  top_heap_mb : float;
}

let time f =
  let t0 = Clock.now () in
  let x = f () in
  (x, Clock.now () -. t0)

(* Times [f] (the timed section) with wall, CPU and GC counters around
   it and nothing else inside. *)
let measure f =
  let g0 = Gc.quick_stat () in
  let c0 = Clock.cpu () in
  let x, wall = time f in
  let cpu = Clock.cpu () -. c0 in
  let g1 = Gc.quick_stat () in
  ( x,
    wall,
    cpu,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections,
    float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 )

let setup_samples_of ~batch f =
  List.init setup_samples (fun _ ->
      snd
        (time (fun () ->
             for _ = 1 to batch do
               ignore (Sys.opaque_identity (f ()))
             done))
      /. float_of_int batch)

let checker_setup_samples c =
  setup_samples_of ~batch:checker_setup_batch (fun () -> setup c)

let lock_setup_samples l =
  setup_samples_of ~batch:lock_make_batch (fun () -> make_lock l.family l)

let sample ~setup_s ~wall ~cpu ~ops ~attempted verdict (minor, major, top) =
  let failed, error =
    match verdict with Ok () -> (0, None) | Error e -> (attempted, Some e)
  in
  {
    setup_s;
    wall_s = wall;
    cpu_s = cpu;
    ops;
    peak_rss_mb = Clock.peak_rss_mb ();
    attempted;
    failed;
    error;
    minor_words = minor;
    major_collections = major;
    top_heap_mb = top;
  }

let rep_checker c =
  let setup_s = checker_setup_samples c in
  let sys = setup c in
  let r, wall, cpu, minor, major, top = measure (fun () -> check c sys) in
  ( sample ~setup_s ~wall ~cpu ~ops:r.M.Explore.stats.distinct ~attempted:1
      (checker_verdict c r) (minor, major, top),
    r )

let rep_lock l ~seed =
  let setup_s = lock_setup_samples l in
  let inst = make_lock l.family l in
  let pids = pid_order ~seed ~nprocs:l.lnprocs in
  let (), wall, cpu, minor, major, top =
    measure (fun () -> round_robin inst pids ~pairs:l.pairs)
  in
  ( sample ~setup_s ~wall ~cpu ~ops:l.pairs ~attempted:l.pairs
      (lock_verdict l inst ~issued:l.pairs)
      (minor, major, top),
    inst,
    pids )
