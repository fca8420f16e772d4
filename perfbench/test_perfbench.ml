(* The benchmark's own checks, on systems small enough for tier-1:

   - a checker result that differs from the expected counts, or a lock
     whose acquires do not match the pairs issued, is a failed
     operation with a reason, never a time;
   - the traced replay counts exactly what the explorer counts, on an
     atomic system and on a Safe-register system under POR, and its
     layer spans nest inside its waves. *)

open Perfbench_lib
module M = Modelcheck
module W = Workloads

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let small ?(register_model = Regsem.Model.Atomic) ?(reduce = M.Reduce.Off)
    ~bound expect =
  {
    W.model = "bakery_pp";
    nprocs = 2;
    bound;
    register_model;
    reduce;
    expect;
  }

let atomic = small ~bound:2 { distinct = 1039; generated = 1949; depth = 48 }

let safe_por =
  small ~register_model:Regsem.Model.Safe ~reduce:M.Reduce.Sym_por ~bound:3
    { distinct = 5532; generated = 11168; depth = 67 }

let checker_failures () =
  let s, _ = W.rep_checker atomic in
  expect "right counts pass" (s.failed = 0 && s.error = None);
  let wrong = { atomic with expect = { atomic.expect with distinct = 1040 } } in
  let s, _ = W.rep_checker wrong in
  expect "a wrong distinct count is one failed operation"
    (s.attempted = 1 && s.failed = 1 && s.error <> None);
  let wrong = { atomic with expect = { atomic.expect with depth = 47 } } in
  let s, _ = W.rep_checker wrong in
  expect "a wrong depth is one failed operation" (s.failed = 1)

let lock_failures () =
  let l =
    { W.family = "bakery_pp"; baseline = "bakery"; lnprocs = 3; lbound = 4; pairs = 1000 }
  in
  let s, inst, _ = W.rep_lock l ~seed:7 in
  expect "lock pairs all acquired" (s.failed = 0 && s.attempted = 1000);
  expect "a short acquire count fails every pair"
    (Result.is_error (W.lock_verdict l inst ~issued:1001));
  expect "a peak above M fails"
    (Result.is_error (W.lock_verdict { l with lbound = 0 } inst ~issued:1000))

let replay_agrees name (c : W.checker) =
  let sys = W.setup c in
  let r = M.Explore.run ~reduce:c.reduce sys in
  let rp = Replay.run ~reduce:c.reduce sys in
  expect (name ^ ": replay counts equal the explorer's")
    (rp.problem = None
    && rp.distinct = r.stats.distinct
    && rp.generated = r.stats.generated
    && rp.depth = r.stats.depth);
  expect (name ^ ": driver and layers add up to the total")
    (Float.abs
       (Replay.driver_s rp
       +. List.fold_left (fun a l -> a +. Replay.layer_s rp l) 0.0 Replay.layers
       -. rp.total_s)
    < 1e-9);
  expect (name ^ ": one wave span per wave")
    (List.length (List.filter (fun (s : Replay.span) -> s.name = "wave") rp.spans)
    = rp.waves)

let () =
  checker_failures ();
  lock_failures ();
  replay_agrees "atomic" atomic;
  replay_agrees "safe+por" safe_por;
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
