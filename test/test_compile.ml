(* Differential tests for the staged mxlang compiler and the parallel
   explorer: the compiled successor engine must agree with the AST
   interpreter on every reachable (state, pid, action) triple, the two
   [Explore.run] engines must produce identical results, and
   [Par_explore.run] must match the sequential explorer on every
   registry algorithm at every pool width. *)

module MC = Modelcheck

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let cap = 20_000

(* -------------------------------------------------- move-level agreement *)

(* Enumerate every state reachable in [prog] (up to [cap]) and compare
   the interpreter's move list against the compiled engine's, move by
   move: same (pid, from_pc, alt) in the same deterministic order and
   structurally equal destination states.  This exercises every guard
   and every effect of every action on every reachable input. *)
let assert_moves_agree name prog ~nprocs ~bound =
  let sys = MC.System.make prog ~nprocs ~bound in
  let g, stats = MC.Explore.run_graph ~max_states:cap sys in
  let states = ref 0 and moves = ref 0 in
  for id = 0 to MC.Vec.length g.states - 1 do
    let s = MC.Vec.get g.states id in
    let reference = MC.System.successors_interpreted sys s in
    let compiled = MC.System.successors sys s in
    check int_t
      (Printf.sprintf "%s state %d: move count" name id)
      (List.length reference) (List.length compiled);
    List.iter2
      (fun (r : MC.System.move) (c : MC.System.move) ->
        incr moves;
        if
          r.pid <> c.pid || r.from_pc <> c.from_pc || r.alt <> c.alt
          || not (MC.State.equal r.dest c.dest)
        then
          Alcotest.failf "%s state %d: move (pid=%d,pc=%d,alt=%d) differs"
            name id r.pid r.from_pc r.alt)
      reference compiled;
    incr states
  done;
  check bool_t (name ^ ": explored something") true (!states > 1);
  check int_t (name ^ ": visited all distinct states") stats.distinct !states;
  ignore !moves

let moves_bakery () =
  assert_moves_agree "bakery n2" (Algorithms.Bakery.program ()) ~nprocs:2
    ~bound:6;
  assert_moves_agree "bakery n3" (Algorithms.Bakery.program ()) ~nprocs:3
    ~bound:8

let moves_bakery_pp () =
  assert_moves_agree "bakery_pp n2" (Core.Bakery_pp_model.program ()) ~nprocs:2
    ~bound:2;
  assert_moves_agree "bakery_pp n3" (Core.Bakery_pp_model.program ()) ~nprocs:3
    ~bound:2;
  assert_moves_agree "bakery_pp_fine n2"
    (Core.Bakery_pp_model.program ~granularity:Algorithms.Common.Fine ())
    ~nprocs:2 ~bound:2

(* ------------------------------------------------ engine-level agreement *)

let outcome_label = function
  | MC.Explore.Pass -> "pass"
  | Violation { invariant; _ } -> "violation:" ^ invariant
  | Deadlock _ -> "deadlock"
  | Capacity -> "capacity"

let trace_of_outcome = function
  | MC.Explore.Violation { trace; _ } | Deadlock { trace } -> Some trace
  | Pass | Capacity -> None

let nprocs_for name = if name = "peterson2" || name = "dekker" then 2 else 3

(* Compiled vs interpreted [Explore.run]: same outcome, same distinct /
   generated / depth counts, and byte-identical counterexample traces,
   on every registry model. *)
let engines_agree () =
  List.iter
    (fun (name, prog) ->
      let sys = MC.System.make prog ~nprocs:(nprocs_for name) ~bound:3 in
      let a = MC.Explore.run ~max_states:cap ~interpreted:true sys in
      let b = MC.Explore.run ~max_states:cap sys in
      check Alcotest.string
        (name ^ ": outcome")
        (outcome_label a.outcome) (outcome_label b.outcome);
      check int_t (name ^ ": distinct") a.stats.distinct b.stats.distinct;
      check int_t (name ^ ": generated") a.stats.generated b.stats.generated;
      check int_t (name ^ ": depth") a.stats.depth b.stats.depth;
      check bool_t
        (name ^ ": identical traces")
        true
        (trace_of_outcome a.outcome = trace_of_outcome b.outcome))
    Harness.Registry.models

(* The same agreement under a state constraint.  The compiled engine's
   frontier is a cursor over store ids that skips, when it reaches
   them, states the constraint rejects, and it raises the depth only
   for a wave holding a state it expands; the interpreted engine
   queues only expandable states.  Depth pins the first rule, traces
   the packed parent/move metadata. *)
let engines_agree_constrained () =
  let constraint_ = Core.Verify.ticket_cap_constraint ~cap:4 in
  let both ?invariants nprocs =
    let sys =
      MC.System.make (Algorithms.Bakery.program ()) ~nprocs ~bound:2
    in
    ( MC.Explore.run ?invariants ~constraint_ ~interpreted:true sys,
      MC.Explore.run ?invariants ~constraint_ sys )
  in
  let agree name (a : MC.Explore.result) (b : MC.Explore.result) =
    check Alcotest.string (name ^ ": outcome") (outcome_label a.outcome)
      (outcome_label b.outcome);
    check int_t (name ^ ": distinct") a.stats.distinct b.stats.distinct;
    check int_t (name ^ ": generated") a.stats.generated b.stats.generated;
    check int_t (name ^ ": depth") a.stats.depth b.stats.depth
  in
  List.iter
    (fun nprocs ->
      let name = Printf.sprintf "bakery N=%d mutex" nprocs in
      let a, b = both ~invariants:[ MC.Invariant.mutex ] nprocs in
      check Alcotest.string (name ^ ": passes") "pass"
        (outcome_label a.outcome);
      agree name a b)
    [ 2; 3 ];
  (* Unbounded Bakery overflows M=2 before its tickets reach the cap. *)
  let a, b = both 2 in
  agree "bakery N=2 overflow" a b;
  check Alcotest.string "bakery N=2 overflows" "violation:no-overflow"
    (outcome_label a.outcome);
  check bool_t "identical counterexamples" true
    (trace_of_outcome a.outcome = trace_of_outcome b.outcome
    && trace_of_outcome a.outcome <> None)

(* --------------------------------------------------- parallel explorer *)

(* [Par_explore.run] at 1..4 domains vs the sequential explorer, on
   every registry model: same outcome always, and on a Pass — where
   both engines explore the full reachable set wave by wave — the
   exact same distinct and generated counts.  On a violation or at
   capacity the engines stop mid-wave at different points, so only
   the outcome is pinned there. *)
let par_matches_sequential () =
  List.iter
    (fun (name, prog) ->
      let sys = MC.System.make prog ~nprocs:(nprocs_for name) ~bound:3 in
      let seq = MC.Explore.run ~max_states:cap sys in
      List.iter
        (fun domains ->
          let par = MC.Par_explore.run ~max_states:cap ~domains sys in
          (* Capacity is a resource limit, not a verdict: the engines
             overshoot the cap by different amounts within the final
             wave, and one may legitimately find a real violation
             there while the other gives up.  Everything else must
             agree. *)
          if seq.outcome <> MC.Explore.Capacity && par.outcome <> MC.Explore.Capacity
          then
            check Alcotest.string
              (Printf.sprintf "%s d=%d: outcome" name domains)
              (outcome_label seq.outcome) (outcome_label par.outcome);
          if seq.outcome = MC.Explore.Pass then begin
            check int_t
              (Printf.sprintf "%s d=%d: distinct" name domains)
              seq.stats.distinct par.stats.distinct;
            check int_t
              (Printf.sprintf "%s d=%d: generated" name domains)
              seq.stats.generated par.stats.generated
          end)
        [ 1; 2; 3; 4 ])
    Harness.Registry.models

(* A shared pool reused across several searches (the harness pattern). *)
let shared_pool () =
  MC.Pool.with_pool 3 (fun pool ->
      List.iter
        (fun (name, prog) ->
          let sys = MC.System.make prog ~nprocs:(nprocs_for name) ~bound:2 in
          let seq = MC.Explore.run ~max_states:cap sys in
          let par = MC.Par_explore.run ~max_states:cap ~pool sys in
          check Alcotest.string
            (name ^ " pooled: outcome")
            (outcome_label seq.outcome) (outcome_label par.outcome);
          if seq.outcome = MC.Explore.Pass then
            check int_t (name ^ " pooled: distinct") seq.stats.distinct
              par.stats.distinct)
        [
          ("bakery_pp", Core.Bakery_pp_model.program ());
          ("peterson2", Algorithms.Peterson2.program ());
        ])

(* ------------------------------------------------------------- the pool *)

let pool_runs_every_worker () =
  MC.Pool.with_pool 4 (fun p ->
      check int_t "size" 4 (MC.Pool.size p);
      let hits = Array.make 4 0 in
      for _ = 1 to 50 do
        MC.Pool.run p (fun w -> hits.(w) <- hits.(w) + 1)
      done;
      Array.iteri
        (fun w n -> check int_t (Printf.sprintf "worker %d ran" w) 50 n)
        hits)

let pool_propagates_exceptions () =
  MC.Pool.with_pool 2 (fun p ->
      (match MC.Pool.run p (fun w -> if w = 1 then failwith "boom") with
      | exception Failure m -> check Alcotest.string "message" "boom" m
      | () -> Alcotest.fail "expected the worker's exception");
      (* The pool must survive a failed job. *)
      let ok = Array.make 2 false in
      MC.Pool.run p (fun w -> ok.(w) <- true);
      check bool_t "still works" true (ok.(0) && ok.(1)))

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case "bakery moves: interpreter = compiled" `Quick
            moves_bakery;
          Alcotest.test_case "bakery++ moves: interpreter = compiled" `Quick
            moves_bakery_pp;
          Alcotest.test_case "Explore.run engines agree on all models" `Quick
            engines_agree;
          Alcotest.test_case "Explore.run engines agree under a constraint"
            `Quick engines_agree_constrained;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "Par_explore matches Explore at 1..4 domains"
            `Quick par_matches_sequential;
          Alcotest.test_case "shared pool across searches" `Quick shared_pool;
          Alcotest.test_case "pool runs every worker" `Quick
            pool_runs_every_worker;
          Alcotest.test_case "pool propagates exceptions" `Quick
            pool_propagates_exceptions;
        ] );
    ]
