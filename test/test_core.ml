(* Tests for the core library — the paper's contribution.  The headline
   checks mirror §6: Bakery++ satisfies mutual exclusion and never
   overflows (model checking, randomized simulation, property tests and
   real domains), it refines Bakery, and the instrumented lock's
   counters behave. *)

module MC = Modelcheck

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ------------------------------------------------------- model checking *)

let theorem_holds_small () =
  (* The paper's theorem at several sizes, both invariants at once. *)
  List.iter
    (fun (n, m) ->
      let r = Core.Verify.check_bakery_pp ~nprocs:n ~bound:m () in
      match r.outcome with
      | MC.Explore.Pass -> ()
      | _ ->
          Alcotest.fail
            (Printf.sprintf "bakery_pp N=%d M=%d: expected Pass" n m))
    [ (1, 1); (1, 3); (2, 1); (2, 2); (2, 3); (3, 2) ]

let theorem_holds_fine () =
  let r =
    Core.Verify.check_bakery_pp ~granularity:Algorithms.Common.Fine ~nprocs:2
      ~bound:2 ()
  in
  match r.outcome with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "fine-grained bakery_pp: expected Pass"

let bakery_contrast () =
  let r = Core.Verify.check_bakery_overflows ~nprocs:2 ~bound:2 () in
  (match r.outcome with
  | MC.Explore.Violation { invariant = "no-overflow"; trace } ->
      check bool_t "counterexample nonempty" true (MC.Trace.length trace > 5)
  | _ -> Alcotest.fail "original bakery must violate no-overflow");
  let m = Core.Verify.check_bakery_mutex ~nprocs:2 ~bound:2 () in
  match m.outcome with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "original bakery satisfies mutex"

let refinement_and_lasso () =
  let r = Core.Verify.refines_bakery ~nprocs:2 ~bound:2 () in
  check bool_t "refines bakery" true (r.included && r.complete);
  let l =
    Core.Verify.starvation_lasso ~require_victim_disabled:true ~nprocs:3
      ~bound:2 ()
  in
  check bool_t "starvation lasso exists at the gate" true (l.witness <> None)

let gate_and_reset_labels () =
  let p = Core.Bakery_pp_model.program () in
  check bool_t "gate label present" true
    (Mxlang.Ast.pc_by_name p Core.Bakery_pp_model.gate_label >= 0);
  check bool_t "reset label present" true
    (Mxlang.Ast.pc_by_name p Core.Bakery_pp_model.reset_label >= 0)

let model_structure () =
  (* Exactly two shared arrays, both single-writer; number is bounded;
     no extra variables — the paper's "no additional memory" claim. *)
  let p = Core.Bakery_pp_model.program () in
  check int_t "two shared variables only" 2 p.Mxlang.Ast.nvars;
  check bool_t "all single-writer" true
    (Array.for_all Fun.id p.Mxlang.Ast.per_process);
  (* Same variables as original Bakery. *)
  let b = Algorithms.Bakery.program () in
  check bool_t "same shared variable names as Bakery" true
    (List.sort compare (Array.to_list p.Mxlang.Ast.var_names)
    = List.sort compare (Array.to_list b.Mxlang.Ast.var_names))

(* ------------------------------------------------------------ ablations *)

let variant_check v ~nprocs ~bound =
  let prog = Core.Bakery_pp_model.program_variant v in
  let sys = MC.System.make prog ~nprocs ~bound in
  (MC.Explore.run ~invariants:[ MC.Invariant.mutex; MC.Invariant.no_overflow ] sys)
    .outcome

let ablation_no_gate_safe () =
  (* A1: the gate is not needed for the theorem. *)
  match
    variant_check
      { Core.Bakery_pp_model.paper_variant with with_gate = false }
      ~nprocs:3 ~bound:2
  with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "gateless Bakery++ must still satisfy both invariants"

let ablation_increment_first_unsafe () =
  (* A2: store order is load-bearing — masked at N=2, broken at N=3. *)
  let unsafe =
    { Core.Bakery_pp_model.paper_variant with increment_first = true }
  in
  (match variant_check unsafe ~nprocs:2 ~bound:2 with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "increment-first is (coincidentally) safe at N=2");
  match variant_check unsafe ~nprocs:3 ~bound:2 with
  | MC.Explore.Violation { invariant = "no-overflow"; _ } -> ()
  | _ -> Alcotest.fail "increment-first must overflow at N=3"

let ablation_eq_gate_atomic () =
  (* A3: with atomic (in-range) reads, = and >= agree. *)
  match
    variant_check
      { Core.Bakery_pp_model.paper_variant with gate_exact = true }
      ~nprocs:3 ~bound:2
  with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "equality-gate variant must pass under atomic reads"

let variant_titles_distinct () =
  let open Core.Bakery_pp_model in
  let titles =
    List.map
      (fun v -> (program_variant v).Mxlang.Ast.title)
      [
        paper_variant;
        { paper_variant with with_gate = false };
        { paper_variant with gate_exact = true };
        { paper_variant with increment_first = true };
      ]
  in
  check int_t "4 distinct titles" 4
    (List.length (List.sort_uniq compare titles))

(* ---------------------------------------------------------- simulation *)

let simulated_long_runs () =
  List.iter
    (fun (n, m, seed) ->
      let prog = Core.Bakery_pp_model.program () in
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs:n ~bound:m) with
          strategy = Schedsim.Scheduler.Uniform seed;
          max_steps = 120_000;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      check int_t
        (Printf.sprintf "no overflow (N=%d M=%d)" n m)
        0 r.overflow_events;
      check int_t
        (Printf.sprintf "no mutex violation (N=%d M=%d)" n m)
        0 r.mutex_violations;
      check bool_t "progress" true (Schedsim.Runner.total_cs r > 0))
    [ (2, 2, 1); (3, 4, 2); (5, 3, 3); (8, 2, 4) ]

let prop_no_overflow_random_schedules =
  QCheck.Test.make
    ~name:"Bakery++ never overflows under random schedules, sizes and crashes"
    ~count:25
    QCheck.(
      quad (int_range 2 5) (int_range 1 6) small_int (int_range 0 1))
    (fun (nprocs, bound, seed, crashy) ->
      let prog = Core.Bakery_pp_model.program () in
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs ~bound) with
          strategy = Schedsim.Scheduler.Uniform seed;
          max_steps = 30_000;
          crash =
            (if crashy = 1 then
               Some
                 {
                   Schedsim.Runner.crash_prob = 0.005;
                   restart_delay = 10;
                   only_outside_cs = false;
                 }
             else None);
          seed;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      r.overflow_events = 0 && r.mutex_violations = 0)

let prop_peak_ticket_bounded =
  QCheck.Test.make
    ~name:"simulated Bakery++ ticket registers never exceed M" ~count:25
    QCheck.(pair (int_range 2 4) (int_range 1 5))
    (fun (nprocs, bound) ->
      let prog = Core.Bakery_pp_model.program () in
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs ~bound) with
          strategy = Schedsim.Scheduler.Uniform (nprocs + bound);
          max_steps = 20_000;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      (* final_shared holds every register; all must be <= bound. *)
      Array.for_all (fun v -> v <= bound) r.final_shared)

(* -------------------------------------------------------------- runtime *)

let lock_basic () =
  let lock = Core.Bakery_pp_lock.create_lock ~nprocs:1 ~bound:4 in
  Core.Bakery_pp_lock.acquire lock 0;
  Core.Bakery_pp_lock.release lock 0;
  let s = Core.Bakery_pp_lock.snapshot lock in
  check int_t "one acquire" 1 s.acquires;
  check int_t "peak is 1" 1 s.peak_ticket;
  check int_t "no resets" 0 s.resets;
  check int_t "bound accessor" 4 (Core.Bakery_pp_lock.bound lock);
  check int_t "nprocs accessor" 1 (Core.Bakery_pp_lock.nprocs lock)

let lock_validation () =
  (match Core.Bakery_pp_lock.create_lock ~nprocs:0 ~bound:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nprocs 0 rejected");
  match Core.Bakery_pp_lock.create_lock ~nprocs:2 ~bound:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 rejected"

let lock_stress_tiny_bound () =
  (* M = 1: the tightest legal register.  Mutual exclusion must still be
     exact and no Overflow_bug may escape. *)
  let nprocs = 3 and per = 1_000 in
  let lock = Core.Bakery_pp_lock.create_lock ~nprocs ~bound:1 in
  let counter = ref 0 in
  let worker i () =
    for _ = 1 to per do
      Core.Bakery_pp_lock.acquire lock i;
      let v = !counter in
      counter := v + 1;
      Core.Bakery_pp_lock.release lock i
    done
  in
  let ds = Array.init nprocs (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join ds;
  check int_t "exact count under M=1" (nprocs * per) !counter;
  let s = Core.Bakery_pp_lock.snapshot lock in
  check int_t "all acquires counted" (nprocs * per) s.acquires;
  check bool_t "peak <= bound" true (s.peak_ticket <= 1)

(* Uncontended acquire/release pairs allocate nothing: the locks' wait
   loops are plain loops, not closures built per call.  Locks.Bakery_lock,
   the baseline Bakery++ is timed against, Black-White Bakery and
   Anderson's array lock are held to the same rule. *)
let lock_allocation_free () =
  let pairs = 10_000 in
  let per_pair name acquire release =
    for k = 0 to 99 do
      acquire (k mod 8);
      release (k mod 8)
    done;
    let before = Gc.minor_words () in
    for k = 0 to pairs - 1 do
      acquire (k mod 8);
      release (k mod 8)
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int pairs in
    if words >= 1.0 then
      Alcotest.failf "%s: %.2f minor words per acquire/release pair" name words
  in
  let pp = Core.Bakery_pp_lock.create_lock ~nprocs:8 ~bound:255 in
  per_pair "bakery_pp" (Core.Bakery_pp_lock.acquire pp)
    (Core.Bakery_pp_lock.release pp);
  let s = Core.Bakery_pp_lock.snapshot pp in
  check int_t "every pair acquired" (pairs + 100) s.acquires;
  check int_t "uncontended tickets stay at 1" 1 s.peak_ticket;
  let b = Locks.Bakery_lock.create ~nprocs:8 ~bound:255 in
  per_pair "bakery" (Locks.Bakery_lock.acquire b) (Locks.Bakery_lock.release b);
  let bw = Locks.Blackwhite_lock.create ~nprocs:8 ~bound:255 in
  per_pair "black_white_bakery" (Locks.Blackwhite_lock.acquire bw)
    (Locks.Blackwhite_lock.release bw);
  let an = Locks.Anderson_lock.create ~nprocs:8 ~bound:255 in
  per_pair "anderson" (Locks.Anderson_lock.acquire an)
    (Locks.Anderson_lock.release an)

let battery_passes () =
  let b = Core.Verify.verify_all ~nprocs:3 ~bound:2 () in
  check bool_t "invariants" true b.invariants_hold;
  check bool_t "bakery overflows" true b.bakery_overflows;
  check bool_t "refinement" true b.refinement_holds;
  check bool_t "gate lasso at N=3" true b.gate_lasso_exists;
  check bool_t "waiting room starvation-free" true b.waiting_room_lasso_free;
  check bool_t "report is readable" true (String.length b.report > 100)

let lock_instance_registry () =
  let f = Harness.Registry.find_family "bakery_pp" in
  check bool_t "needs bound" true f.needs_bound;
  let inst = f.make ~nprocs:2 ~bound:8 in
  inst.acquire 1;
  inst.release 1;
  check int_t "space is 2N" 4 inst.space_words

let () =
  Alcotest.run "core"
    [
      ( "verify",
        [
          Alcotest.test_case "theorem at small sizes" `Quick theorem_holds_small;
          Alcotest.test_case "theorem, fine granularity" `Quick
            theorem_holds_fine;
          Alcotest.test_case "bakery contrast (overflow vs mutex)" `Quick
            bakery_contrast;
          Alcotest.test_case "refinement and lasso" `Quick refinement_and_lasso;
          Alcotest.test_case "model labels" `Quick gate_and_reset_labels;
          Alcotest.test_case "no extra variables" `Quick model_structure;
          Alcotest.test_case "full battery (verify_all)" `Slow battery_passes;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "A1: gateless variant stays safe" `Quick
            ablation_no_gate_safe;
          Alcotest.test_case "A2: increment-first overflows at N=3" `Quick
            ablation_increment_first_unsafe;
          Alcotest.test_case "A3: equality gate under atomic reads" `Quick
            ablation_eq_gate_atomic;
          Alcotest.test_case "variant titles distinct" `Quick
            variant_titles_distinct;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "long randomized runs" `Quick simulated_long_runs;
          QCheck_alcotest.to_alcotest prop_no_overflow_random_schedules;
          QCheck_alcotest.to_alcotest prop_peak_ticket_bounded;
        ] );
      ( "lock",
        [
          Alcotest.test_case "single participant" `Quick lock_basic;
          Alcotest.test_case "argument validation" `Quick lock_validation;
          Alcotest.test_case "uncontended pairs allocate nothing" `Quick
            lock_allocation_free;
          Alcotest.test_case "stress with M=1" `Slow lock_stress_tiny_bound;
          Alcotest.test_case "registry instance" `Quick lock_instance_registry;
        ] );
    ]
