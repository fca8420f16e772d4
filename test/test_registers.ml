(* Tests for the runtime register substrate: bounded registers with
   overflow policies, padded atomic arrays, backoff, the deterministic
   PRNG and the yielding spin primitive. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

module B = Registers.Bounded
module A = Registers.Atomic_array

(* -------------------------------------------------------------- bounded *)

let bounded_basics () =
  let r = B.create ~bound:10 3 in
  check int_t "initial value" 3 (B.get r);
  B.set r 10;
  check int_t "bound itself is storable" 10 (B.get r);
  check int_t "bound accessor" 10 (B.bound r);
  check int_t "no overflow yet" 0 (B.overflow_count r)

let bounded_trap () =
  let r = B.create ~policy:B.Trap ~bound:5 0 in
  (match B.set r 6 with
  | exception B.Overflow { value = 6; bound = 5 } -> ()
  | _ -> Alcotest.fail "expected Overflow");
  check int_t "overflow counted" 1 (B.overflow_count r);
  check int_t "value unchanged after trap" 0 (B.get r)

let bounded_wrap () =
  let r = B.create ~policy:B.Wrap ~bound:5 0 in
  B.set r 6;
  check int_t "6 wraps to 0 (mod M+1)" 0 (B.get r);
  B.set r 7;
  check int_t "7 wraps to 1" 1 (B.get r);
  check int_t "two overflows counted" 2 (B.overflow_count r)

let bounded_saturate () =
  let r = B.create ~policy:B.Saturate ~bound:5 0 in
  B.set r 99;
  check int_t "saturates at M" 5 (B.get r);
  check int_t "overflow counted" 1 (B.overflow_count r)

let bounded_validation () =
  (match B.create ~bound:0 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 rejected");
  match B.create ~bound:3 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "initial value beyond bound rejected"

let bounded_array_and_max () =
  let a = B.array ~bound:9 4 0 in
  check int_t "array length" 4 (Array.length a);
  B.set a.(2) 7;
  B.set a.(0) 3;
  check int_t "max_of scans all" 7 (B.max_of a)

(* --------------------------------------------------------- atomic array *)

(* Locks reach the registers through [regs] with stdlib [Atomic]
   operations; these tests drive the same path. *)
let atomic_array_ops () =
  let a = A.create 5 0 in
  let r = a.regs in
  check int_t "length" 5 (Array.length r);
  Atomic.set r.(3) 42;
  check int_t "get/set" 42 (Atomic.get r.(3));
  check int_t "fetch_and_add returns old" 42 (Atomic.fetch_and_add r.(3) 8);
  check int_t "fetch_and_add added" 50 (Atomic.get r.(3));
  check bool_t "cas succeeds" true (Atomic.compare_and_set r.(3) 50 60);
  check bool_t "cas fails on stale" false (Atomic.compare_and_set r.(3) 50 70);
  check int_t "exchange returns old" 60 (Atomic.exchange r.(3) 1);
  check int_t "max_of" 1 (A.max_of a);
  check int_t "words is logical size" 5 (A.words a);
  match Atomic.get r.(5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bounds check expected"

let atomic_array_domains () =
  (* Parallel increments through fetch_and_add must be exact. *)
  let a = A.create 1 0 in
  let per = 20_000 in
  let worker () =
    for _ = 1 to per do
      ignore (Atomic.fetch_and_add a.regs.(0) 1)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check int_t "exact parallel count" (3 * per) (Atomic.get a.regs.(0))

(* Each register is a box of its own, 8 boxes apart in the padded
   allocation, and a store to one is seen through no other. *)
let atomic_array_distinct_boxes () =
  let n = 6 in
  let a = A.create n 0 in
  check int_t "8 boxes per register" (8 * n) (Array.length a.boxes);
  for i = 0 to n - 1 do
    check bool_t (Printf.sprintf "regs.(%d) is boxes.(%d)" i (8 * i)) true
      (a.regs.(i) == a.boxes.(8 * i));
    for j = i + 1 to n - 1 do
      check bool_t (Printf.sprintf "regs.(%d) != regs.(%d)" i j) true
        (a.regs.(i) != a.regs.(j))
    done
  done;
  Array.iteri (fun i r -> Atomic.set r (i + 1)) a.regs;
  Array.iteri
    (fun i r -> check int_t (Printf.sprintf "register %d" i) (i + 1) (Atomic.get r))
    a.regs;
  check int_t "max_of sees every register" n (A.max_of a)

(* -------------------------------------------------------------- backoff *)

let backoff_grows_and_resets () =
  let b = Registers.Backoff.create ~min_spins:2 ~max_spins:8 () in
  (* Observable contract: once waves run, reset restores the start; we
     can only check it does not raise and terminates promptly. *)
  Registers.Backoff.once b;
  Registers.Backoff.once b;
  Registers.Backoff.once b;
  Registers.Backoff.once b;
  Registers.Backoff.reset b;
  Registers.Backoff.once b;
  (match Registers.Backoff.create ~min_spins:0 ~max_spins:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "min_spins 0 rejected");
  match Registers.Backoff.create ~min_spins:8 ~max_spins:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max < min rejected"

(* ------------------------------------------------------------------ rng *)

let rng_deterministic () =
  let a = Prng.Rng.create 42 and b = Prng.Rng.create 42 in
  let xs = List.init 100 (fun _ -> Prng.Rng.next a) in
  let ys = List.init 100 (fun _ -> Prng.Rng.next b) in
  check bool_t "same seed, same stream" true (xs = ys);
  let c = Prng.Rng.create 43 in
  let zs = List.init 100 (fun _ -> Prng.Rng.next c) in
  check bool_t "different seed, different stream" true (xs <> zs)

let rng_ranges () =
  let r = Prng.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.Rng.int r 10 in
    check bool_t "int in range" true (v >= 0 && v < 10);
    let f = Prng.Rng.float r 2.0 in
    check bool_t "float in range" true (f >= 0.0 && f < 2.0)
  done;
  match Prng.Rng.int r 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 rejected"

let rng_copy_and_split () =
  let r = Prng.Rng.create 5 in
  ignore (Prng.Rng.next r);
  let s = Prng.Rng.copy r in
  check int_t "copy continues identically" (Prng.Rng.next r) (Prng.Rng.next s);
  let t = Prng.Rng.split r in
  check bool_t "split diverges from parent" true
    (Prng.Rng.next t <> Prng.Rng.next r)

let rng_distribution () =
  (* A crude uniformity check: each bucket of 10 gets 5-15% of draws. *)
  let r = Prng.Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let v = Prng.Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check bool_t
        (Printf.sprintf "bucket %d roughly uniform (%d)" i c)
        true
        (c > n / 20 && c < n * 3 / 20))
    buckets

let rng_shuffle () =
  let r = Prng.Rng.create 3 in
  let a = Array.init 20 Fun.id in
  let b = Array.copy a in
  Prng.Rng.shuffle r b;
  check bool_t "permutation: same multiset" true
    (List.sort compare (Array.to_list b) = Array.to_list a);
  check bool_t "actually shuffled" true (a <> b)

(* ----------------------------------------------------------------- spin *)

let spin_runs () =
  (* Just exercise it across the yield boundary. *)
  for _ = 1 to 3 * Registers.Spin.yield_period do
    Registers.Spin.relax ()
  done

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int always lands in [0, bound)" ~count:300
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Prng.Rng.create seed in
      let v = Prng.Rng.int r bound in
      v >= 0 && v < bound)

let prop_bounded_wrap_in_range =
  QCheck.Test.make ~name:"Wrap policy keeps register within [0, M]" ~count:300
    QCheck.(pair (int_range 1 1000) (int_range 0 1_000_000))
    (fun (bound, v) ->
      let r = Registers.Bounded.create ~policy:Registers.Bounded.Wrap ~bound 0 in
      Registers.Bounded.set r v;
      let stored = Registers.Bounded.get r in
      stored >= 0 && stored <= bound)

(* The three overflow policies agree on *when* a store overflows and
   differ only in what they do about it.  Drive the same non-negative
   write sequence at one register per policy and check the algebra:
   Trap raises exactly when Wrap's stored value differs from the value
   an unbounded register would hold, Saturate never exceeds M, and all
   three count the same overflow events. *)
let writes_gen = QCheck.(pair (int_range 1 50) (small_list (int_range 0 200)))

let prop_bounded_trap_iff_wrap_corrupts =
  QCheck.Test.make
    ~name:"Trap raises iff Wrap differs from the unbounded shadow" ~count:300
    writes_gen
    (fun (bound, writes) ->
      let trap = Registers.Bounded.create ~policy:Registers.Bounded.Trap ~bound 0 in
      let wrap = Registers.Bounded.create ~policy:Registers.Bounded.Wrap ~bound 0 in
      List.for_all
        (fun v ->
          let trapped =
            match Registers.Bounded.set trap v with
            | () -> false
            | exception Registers.Bounded.Overflow _ -> true
          in
          Registers.Bounded.set wrap v;
          (* the unbounded shadow register would simply hold [v] *)
          trapped = (Registers.Bounded.get wrap <> v))
        writes)

let prop_bounded_saturate_bounded =
  QCheck.Test.make ~name:"Saturate never exceeds M" ~count:300 writes_gen
    (fun (bound, writes) ->
      let r =
        Registers.Bounded.create ~policy:Registers.Bounded.Saturate ~bound 0
      in
      List.for_all
        (fun v ->
          Registers.Bounded.set r v;
          let stored = Registers.Bounded.get r in
          stored >= 0 && stored <= bound
          && (v > bound || stored = v))
        writes)

let prop_bounded_overflow_count_policy_free =
  QCheck.Test.make ~name:"overflow_count is policy-independent" ~count:300
    writes_gen
    (fun (bound, writes) ->
      let mk policy = Registers.Bounded.create ~policy ~bound 0 in
      let trap = mk Registers.Bounded.Trap
      and wrap = mk Registers.Bounded.Wrap
      and sat = mk Registers.Bounded.Saturate in
      List.iter
        (fun v ->
          (try Registers.Bounded.set trap v
           with Registers.Bounded.Overflow _ -> ());
          Registers.Bounded.set wrap v;
          Registers.Bounded.set sat v)
        writes;
      let expected =
        List.length (List.filter (fun v -> v > bound) writes)
      in
      Registers.Bounded.overflow_count trap = expected
      && Registers.Bounded.overflow_count wrap = expected
      && Registers.Bounded.overflow_count sat = expected)

let () =
  Alcotest.run "registers"
    [
      ( "bounded",
        [
          Alcotest.test_case "basics" `Quick bounded_basics;
          Alcotest.test_case "trap policy" `Quick bounded_trap;
          Alcotest.test_case "wrap policy" `Quick bounded_wrap;
          Alcotest.test_case "saturate policy" `Quick bounded_saturate;
          Alcotest.test_case "validation" `Quick bounded_validation;
          Alcotest.test_case "arrays and max" `Quick bounded_array_and_max;
        ] );
      ( "atomic_array",
        [
          Alcotest.test_case "operations" `Quick atomic_array_ops;
          Alcotest.test_case "parallel exactness" `Quick atomic_array_domains;
          Alcotest.test_case "registers are distinct boxes" `Quick
            atomic_array_distinct_boxes;
        ] );
      ("backoff", [ Alcotest.test_case "waves" `Quick backoff_grows_and_resets ]);
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick rng_deterministic;
          Alcotest.test_case "ranges" `Quick rng_ranges;
          Alcotest.test_case "copy and split" `Quick rng_copy_and_split;
          Alcotest.test_case "rough uniformity" `Quick rng_distribution;
          Alcotest.test_case "shuffle" `Quick rng_shuffle;
        ] );
      ("spin", [ Alcotest.test_case "relax with yields" `Quick spin_runs ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rng_int_bounds;
            prop_bounded_wrap_in_range;
            prop_bounded_trap_iff_wrap_corrupts;
            prop_bounded_saturate_bounded;
            prop_bounded_overflow_count_policy_free;
          ] );
    ]
