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
   on every registry model, unreduced and under symmetry + POR, plus
   two models under regular registers.  The interpreted run reads its
   traces off stored parents, the compiled one rebuilds them, so trace
   identity pins the rebuild under reduction too. *)
let engines_agree () =
  let agree name ?reduce sys =
    let a = MC.Explore.run ?reduce ~max_states:cap ~interpreted:true sys in
    let b = MC.Explore.run ?reduce ~max_states:cap sys in
    check Alcotest.string
      (name ^ ": outcome")
      (outcome_label a.outcome) (outcome_label b.outcome);
    check int_t (name ^ ": distinct") a.stats.distinct b.stats.distinct;
    check int_t (name ^ ": generated") a.stats.generated b.stats.generated;
    check int_t (name ^ ": depth") a.stats.depth b.stats.depth;
    check bool_t
      (name ^ ": identical traces")
      true
      (trace_of_outcome a.outcome = trace_of_outcome b.outcome)
  in
  let both name sys =
    agree name sys;
    agree (name ^ " sym+por") ~reduce:MC.Reduce.Sym_por sys
  in
  List.iter
    (fun (name, prog) ->
      both name (MC.System.make prog ~nprocs:(nprocs_for name) ~bound:3))
    Harness.Registry.models;
  List.iter
    (fun name ->
      both (name ^ " regular")
        (MC.System.make ~register_model:Regsem.Model.Regular
           (Harness.Registry.find_model name) ~nprocs:3 ~bound:3))
    [ "tas"; "black_white_bakery" ]

(* BFS depth of every state of the constrained graph, by parent chain
   (a parent's id is below its child's). *)
let depths (g : MC.Explore.graph) =
  let n = MC.Vec.length g.states in
  let d = Array.make n 0 in
  for id = 1 to n - 1 do
    d.(id) <- d.(MC.Vec.get g.parent id) + 1
  done;
  d

(* The same agreement under a state constraint.  The frontier is a
   cursor over store ids that skips, when it reaches them, states the
   constraint rejects, and the depth rises only for a wave holding a
   state it expands.  Both engines share that cursor, so the depth is
   also checked against the parent chains of [run_graph]: on a pass it
   is the deepest state the constraint accepts.  Traces pin the
   counterexample rebuild's skipping of rejected states. *)
let engines_agree_constrained () =
  let constraint_ = Core.Verify.ticket_cap_constraint ~cap:4 in
  let system nprocs =
    MC.System.make (Algorithms.Bakery.program ()) ~nprocs ~bound:2
  in
  let both ?invariants nprocs =
    let sys = system nprocs in
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
      agree name a b;
      let sys = system nprocs in
      let g, _ = MC.Explore.run_graph ~constraint_ sys in
      let d = depths g in
      let deepest = ref 0 in
      MC.Vec.iteri
        (fun id s -> if constraint_ sys s then deepest := max !deepest d.(id))
        g.states;
      check int_t (name ^ ": depth = deepest accepted state") !deepest
        b.stats.depth)
    [ 2; 3 ];
  (* Unbounded Bakery overflows M=2 before its tickets reach the cap. *)
  let a, b = both 2 in
  agree "bakery N=2 overflow" a b;
  check Alcotest.string "bakery N=2 overflows" "violation:no-overflow"
    (outcome_label a.outcome);
  check bool_t "identical counterexamples" true
    (trace_of_outcome a.outcome = trace_of_outcome b.outcome
    && trace_of_outcome a.outcome <> None)

(* ------------------------------------------- rebuilt counterexamples *)

(* The compiled engine keeps no parent per state: it rebuilds a
   counterexample by re-expanding the BFS wave above each trace state
   and taking the first (state, move) that yields it.  The interpreted
   engine keeps a parent per state, so agreement pins the rebuild: each
   case below must give the same outcome and an identical trace. *)
let rebuilt_trace ?invariants ?constraint_ ?reduce name sys =
  let run interpreted =
    MC.Explore.run ?invariants ?constraint_ ?reduce ~max_states:cap
      ~interpreted sys
  in
  let a = run true and b = run false in
  check Alcotest.string (name ^ ": outcome") (outcome_label a.outcome)
    (outcome_label b.outcome);
  check int_t (name ^ ": distinct") a.stats.distinct b.stats.distinct;
  match (trace_of_outcome a.outcome, trace_of_outcome b.outcome) with
  | Some ta, Some tb ->
      check bool_t (name ^ ": identical traces") true (ta = tb);
      (a.outcome, ta)
  | _ ->
      Alcotest.failf "%s: expected a counterexample, got %s" name
        (outcome_label a.outcome)

(* A flag lock without a tie-break: raise your flag, then wait for every
   other flag to drop.  All processes waiting with raised flags is a
   deadlock. *)
let flag_lock () =
  let open Mxlang.Dsl in
  let module B = Mxlang.Builder in
  let b = B.create ~title:"flag_lock" in
  let flag = B.shared_per_process b "flag" () in
  let ncs = B.fresh_label b "ncs" in
  let raise_ = B.fresh_label b "raise" in
  let wait = B.fresh_label b "wait" in
  let cs = B.fresh_label b "cs" in
  let leave = B.fresh_label b "leave" in
  B.define b ncs ~kind:Mxlang.Ast.Noncritical [ B.goto raise_ ];
  B.define b raise_ ~kind:Mxlang.Ast.Doorway
    [ B.action ~effects:[ set_own flag one ] wait ];
  B.define b wait ~kind:Mxlang.Ast.Waiting
    [ B.action ~guard:(qall Mxlang.Ast.Rothers (rd flag q =: zero)) cs ];
  B.define b cs ~kind:Mxlang.Ast.Critical [ B.goto leave ];
  B.define b leave ~kind:Mxlang.Ast.Exit
    [ B.action ~effects:[ set_own flag zero ] ncs ];
  B.build b

let rebuilt_deadlock () =
  List.iter
    (fun nprocs ->
      let sys = MC.System.make (flag_lock ()) ~nprocs ~bound:2 in
      let name = Printf.sprintf "flag lock N=%d" nprocs in
      match rebuilt_trace name sys with
      | MC.Explore.Deadlock _, trace ->
          (* Every process takes two steps to reach [wait]. *)
          check int_t (name ^ ": shortest deadlock") ((2 * nprocs) + 1)
            (MC.Trace.length trace)
      | outcome, _ ->
          Alcotest.failf "%s: expected a deadlock, got %s" name
            (outcome_label outcome))
    [ 2; 3 ]

(* Under symmetry + POR the stored states are canonical and the acting
   pids slot names; the rebuild must find the same canonical parents
   and moves before {!Reduce.decanonicalize} maps them back. *)
let rebuilt_sym_por () =
  List.iter
    (fun (name, prog, nprocs, bound) ->
      let sys = MC.System.make prog ~nprocs ~bound in
      check bool_t (name ^ ": symmetry certified") true
        (MC.Reduce.symmetry_active (MC.Reduce.make MC.Reduce.Sym_por sys));
      ignore (rebuilt_trace ~reduce:MC.Reduce.Sym_por name sys))
    [
      ("ticket N=3 M=3", Algorithms.Ticket_model.program (), 3, 3);
      ("ticket_mod N=4 M=2", Algorithms.Ticket_model.program_mod (), 4, 2);
      ("flag lock N=3", flag_lock (), 3, 2);
    ]

(* Under [ticket_cap_constraint] the stored waves hold states the
   constraint rejects: checked, never expanded.  The rebuild must skip
   them as the search did, even where one yields the trace state too.
   The invariant fails on a rejected state: a process takes a ticket
   above the cap while another is critical. *)
let rebuilt_constrained () =
  List.iter
    (fun (nprocs, tcap) ->
      let name = Printf.sprintf "bakery N=%d cap %d" nprocs tcap in
      let constraint_ = Core.Verify.ticket_cap_constraint ~cap:tcap in
      let sys =
        MC.System.make (Algorithms.Bakery.program ()) ~nprocs ~bound:8
      in
      let number = Mxlang.Ast.var_by_name (MC.System.program sys) "number" in
      let lay = MC.System.layout sys in
      let above_cap_while_critical =
        MC.Invariant.custom "above-cap-while-critical" (fun sys s ->
            let critical = ref false and above = ref false in
            for i = 0 to nprocs - 1 do
              if MC.System.in_critical sys s i then critical := true;
              if MC.State.shared_cell lay s number i > tcap then above := true
            done;
            not (!critical && !above))
      in
      let _, trace =
        rebuilt_trace ~invariants:[ above_cap_while_critical ] ~constraint_
          name sys
      in
      (* Not vacuous: some wave the rebuild scans holds a rejected state. *)
      let g, _ = MC.Explore.run_graph ~constraint_ ~max_states:cap sys in
      let d = depths g and last = MC.Trace.length trace - 1 in
      let rejected = ref 0 in
      MC.Vec.iteri
        (fun id s ->
          if d.(id) < last && not (constraint_ sys s) then incr rejected)
        g.states;
      check bool_t (name ^ ": rejected states above the violation") true
        (!rejected > 0))
    [ (2, 2); (2, 3); (3, 2) ]

(* The two shallowest cases: a violation at the root (no wave to
   re-expand) and one in wave 1, where the move must be found among the
   root's successors — here the first move of the last process. *)
let rebuilt_root_and_level1 () =
  let sys = MC.System.make (Algorithms.Bakery.program ()) ~nprocs:3 ~bound:3 in
  let never = MC.Invariant.custom "never" (fun _ _ -> false) in
  (match rebuilt_trace ~invariants:[ never ] "root" sys with
  | _, [ e ] -> check int_t "root: no acting pid" (-1) e.MC.Trace.pid
  | _, t -> Alcotest.failf "root: trace of length %d" (MC.Trace.length t));
  let init = MC.System.initial sys in
  let lay = MC.System.layout sys in
  let last_still =
    MC.Invariant.custom "last-process-still" (fun _ s ->
        MC.State.pc lay s 2 = MC.State.pc lay init 2)
  in
  match rebuilt_trace ~invariants:[ last_still ] "wave 1" sys with
  | _, [ _; e ] -> check int_t "wave 1: the last process moved" 2 e.MC.Trace.pid
  | _, t -> Alcotest.failf "wave 1: trace of length %d" (MC.Trace.length t)

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
          Alcotest.test_case "rebuilt trace: deadlock" `Quick rebuilt_deadlock;
          Alcotest.test_case "rebuilt trace: sym+por counterexamples" `Quick
            rebuilt_sym_por;
          Alcotest.test_case "rebuilt trace: constraint-rejected states"
            `Quick rebuilt_constrained;
          Alcotest.test_case "rebuilt trace: root and wave 1" `Quick
            rebuilt_root_and_level1;
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
