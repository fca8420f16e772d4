(* Sequential BFS over the induced transition system.

   One driver ([search]) serves [run], [run ~interpreted:true] and
   [run_graph].  Each candidate successor is built in one reusable
   scratch buffer, probed against the bit-packed {!Store}, and packed
   into its arena only if genuinely new.  The frontier is a cursor over
   store ids, and the search keeps the first id of each BFS wave.

   - The default [run] keeps no parent or move per state: a
     counterexample is rebuilt by re-expanding the wave above each of
     its states (see [rebuild]).  Per expanded state nothing is
     allocated on the OCaml heap: the successor callback, the staged
     invariants and the cursor are set up once per run, and the store
     grows by whole chunks.  The test "Explore.run allocates < 1 word
     per state" in test/test_modelcheck.ml pins this (about 0.06 minor
     words per distinct state on bakery_pp N=3/M=2, all of it per-run,
     per-wave and per-chunk set-up).
   - [run ~interpreted:true] is the differential reference: successors
     come from the AST interpreter ({!System.successors_interpreted},
     copied into the scratch buffer), invariants are checked through
     their unstaged [holds], and a parent, pid and pc are recorded for
     each new state, so traces come from {!trace_of}.  The tests in
     test/test_compile.ml compare it with the default run.
   - [run_graph] records parents too, checks nothing and reduces
     nothing, and boxes the stored states into a {!graph} at the end. *)

type stats = { generated : int; distinct : int; depth : int; runtime : float }

type outcome =
  | Pass
  | Violation of { invariant : string; trace : Trace.t }
  | Deadlock of { trace : Trace.t }
  | Capacity

type result = { outcome : outcome; stats : stats }

type graph = {
  sys : System.t;
  states : State.packed Vec.t;
  parent : int Vec.t;
  via_pid : int Vec.t;
  via_pc : int Vec.t;
  id_of : State.packed -> int option;
}

let now () = Unix.gettimeofday ()

let trace_of sys ~state_of ~parent ~via_pid ~via_pc id =
  let p = System.program sys in
  let rec walk id acc =
    let pid = Vec.get via_pid id in
    let entry =
      {
        Trace.pid;
        step_name =
          (if pid < 0 then "<init>" else p.steps.(Vec.get via_pc id).step_name);
        state = state_of id;
      }
    in
    let par = Vec.get parent id in
    if par < 0 then entry :: acc else walk par (entry :: acc)
  in
  walk id []

let trace_to (g : graph) id =
  trace_of g.sys ~state_of:(Vec.get g.states) ~parent:g.parent
    ~via_pid:g.via_pid ~via_pc:g.via_pc id

let default_invariants = lazy [ Invariant.mutex; Invariant.no_overflow ]

let outcome_tag = function
  | Pass -> "pass"
  | Violation { invariant; _ } -> "violation:" ^ invariant
  | Deadlock _ -> "deadlock"
  | Capacity -> "capacity"

(* Final telemetry for a finished search: one forced TLC-style progress
   line plus registry counters.  Off the hot path — called once. *)
let record_finish ?progress ?metrics ~prefix outcome (stats : stats) =
  (match progress with
  | None -> ()
  | Some p ->
      Telemetry.Progress.force p (fun () ->
          [
            ("outcome", Telemetry.Json.Str (outcome_tag outcome));
            ("depth", Telemetry.Json.Num (float_of_int stats.depth));
            ("generated", Telemetry.Json.Num (float_of_int stats.generated));
            ("distinct", Telemetry.Json.Num (float_of_int stats.distinct));
            ( "kstates_s",
              Telemetry.Json.Num
                (if stats.runtime > 0.0 then
                   float_of_int stats.generated /. stats.runtime /. 1e3
                 else 0.0) );
            ("runtime_s", Telemetry.Json.Num stats.runtime);
          ]));
  match metrics with
  | None -> ()
  | Some m ->
      let open Telemetry.Metrics in
      add (counter m (prefix ^ ".generated")) stats.generated;
      add (counter m (prefix ^ ".distinct")) stats.distinct;
      set (gauge m (prefix ^ ".depth")) (float_of_int stats.depth);
      set (gauge m (prefix ^ ".runtime_s")) stats.runtime;
      set (gauge m (prefix ^ ".kstates_s"))
        (if stats.runtime > 0.0 then
           float_of_int stats.generated /. stats.runtime /. 1e3
         else 0.0)

(* Parent id, acting pid and pc of every stored state, in id order; the
   root has [-1] for all three. *)
type parents = { parent : int Vec.t; via_pid : int Vec.t; via_pc : int Vec.t }

let new_parents () =
  let p =
    { parent = Vec.create (); via_pid = Vec.create (); via_pc = Vec.create () }
  in
  ignore (Vec.push p.parent (-1));
  ignore (Vec.push p.via_pid (-1));
  ignore (Vec.push p.via_pc (-1));
  p

(* The one BFS driver: dedup-before-copy on the packed store, frontier
   as a cursor over store ids.  [interpreted] picks the successor source
   and the invariant form; [parents], when given, records a parent per
   new state and turns the trace rebuild into a parent-chain walk. *)
let search ~invariants ~constraint_ ~max_states ~check_deadlock ~interpreted
    ~parents ~red ~progress ~metrics sys =
  let canon = Reduce.canonizer red in
  let t0 = now () in
  let generated = ref 0 in
  let max_depth = ref 0 in
  let expand s = match constraint_ with None -> true | Some c -> c sys s in
  let idx = Store.create () in
  let steps = (System.program sys).Mxlang.Ast.steps in
  let lay = System.layout sys in
  (* Wave boundaries: the first id of every wave so far, then the end
     of the wave being expanded, so wave [w] holds the ids from
     [starts.(w)] up to [starts.(w+1)] (or the store's end).  One int
     per wave is all the default search keeps for counterexamples. *)
  let starts = Vec.create () in
  let wave_of id =
    let w = ref 0 in
    while !w + 1 < Vec.length starts && Vec.get starts (!w + 1) <= id do
      incr w
    done;
    !w
  in
  (* Expand [s] into [scratch], one callback per move, in (pid,
     alternative, flicker rank) order, restricted to process [only]
     when [only >= 0]. *)
  let successors ~only s ~scratch f =
    if interpreted then
      List.iter
        (fun (m : System.move) ->
          if only < 0 || m.pid = only then begin
            Array.blit m.dest 0 scratch 0 lay.State.words;
            f ~pid:m.pid ~from_pc:m.from_pc ~alt:m.alt ~flick:m.flick
          end)
        (System.successors_interpreted sys s)
    else System.iter_successors_only ~only sys s ~scratch f
  in
  (* Without stored parents, the parent of a state in wave [w] is the
     first state of wave [w-1], in id order, that the search expanded
     and that yields it as a successor: that expansion is the one that
     inserted it.  Re-expanding wave [w-1] under the same constraint,
     ample filter and canonizer finds that state and the move, in the
     search's own order, so the trace is the one a stored parent
     pointer would give.  The cost is at most one pass over the waves
     above the target, paid only when a trace is asked for. *)
  let rebuild id =
    let buf = Array.make lay.State.words 0 in
    let succ = Array.make lay.State.words 0 in
    let exception Parent of int * int * int in
    let rec walk id w acc =
      let state = Store.get idx id in
      if w = 0 then { Trace.pid = -1; step_name = "<init>"; state } :: acc
      else
        match
          for p = Vec.get starts (w - 1) to Vec.get starts w - 1 do
            Store.read_into idx p buf;
            if expand buf then
              successors ~only:(Reduce.ample red buf) buf ~scratch:succ
                (fun ~pid ~from_pc ~alt:_ ~flick:_ ->
                  canon succ;
                  if State.equal succ state then
                    raise (Parent (p, pid, from_pc)))
          done
        with
        | () -> failwith "Explore.run: counterexample state has no parent"
        | exception Parent (p, pid, pc) ->
            let step_name = steps.(pc).step_name in
            walk p (w - 1) ({ Trace.pid; step_name; state } :: acc)
    in
    walk id (wave_of id) []
  in
  let trace id =
    Reduce.decanonicalize red
      (match parents with
      | None -> rebuild id
      | Some (p : parents) ->
          trace_of sys ~state_of:(Store.get idx) ~parent:p.parent
            ~via_pid:p.via_pid ~via_pc:p.via_pc id)
  in
  let scratch = Array.make lay.State.words 0 in
  let current = Array.make lay.State.words 0 in
  (* The frontier is a cursor over store ids: ids are assigned in
     discovery order, which is BFS order, so the states of one wave
     are the ids between two boundaries. *)
  let cursor = ref 0 in
  (* One tick per expanded state; a disabled reporter costs one call
     to a static no-op closure, nothing else (E11 must not move). *)
  let tick =
    match progress with
    | None -> fun () -> ()
    | Some p ->
        let fields () =
          let elapsed = now () -. t0 in
          [
            ("depth", Telemetry.Json.Num (float_of_int !max_depth));
            ("generated", Telemetry.Json.Num (float_of_int !generated));
            ("distinct", Telemetry.Json.Num (float_of_int (Store.length idx)));
            ( "queue",
              Telemetry.Json.Num (float_of_int (Store.length idx - !cursor)) );
            ( "kstates_s",
              Telemetry.Json.Num
                (if elapsed > 0.0 then float_of_int !generated /. elapsed /. 1e3
                 else 0.0) );
            ("store_load", Telemetry.Json.Num (Store.load_factor idx));
            ( "arena_mb",
              Telemetry.Json.Num
                (float_of_int (Store.arena_bytes idx) /. 1048576.0) );
          ]
        in
        fun () -> Telemetry.Progress.tick p fields
  in
  let wave_hist =
    match metrics with
    | None -> None
    | Some m -> Some (Telemetry.Metrics.histogram m "explore.wave_s")
  in
  let wave_t0 = ref (now ()) in
  (* Live gauges feed the flight-recorder sampler: refreshed once per
     wave (never per state), and registered only when a registry was
     asked for, so an uninstrumented run stays bit-identical.  Named
     live_* because record_finish registers the bare names as
     counters. *)
  let live =
    match metrics with
    | None -> None
    | Some m ->
        Telemetry.Metrics.set
          (Telemetry.Metrics.gauge m "explore.max_states")
          (float_of_int max_states);
        Some
          ( Telemetry.Metrics.gauge m "explore.frontier_depth",
            Telemetry.Metrics.gauge m "explore.live_generated",
            Telemetry.Metrics.gauge m "explore.live_distinct",
            Telemetry.Metrics.gauge m "explore.live_kstates_s",
            Telemetry.Metrics.gauge m "explore.store_bytes" )
  in
  let on_wave ~depth ~frontier =
    max_depth := depth;
    (match live with
    | None -> ()
    | Some (g_frontier, g_gen, g_dist, g_rate, g_bytes) ->
        Telemetry.Metrics.set g_frontier (float_of_int frontier);
        Telemetry.Metrics.set g_gen (float_of_int !generated);
        Telemetry.Metrics.set g_dist (float_of_int (Store.length idx));
        Telemetry.Metrics.set g_bytes (float_of_int (Store.arena_bytes idx));
        let elapsed = now () -. t0 in
        Telemetry.Metrics.set g_rate
          (if elapsed > 0.0 then float_of_int !generated /. elapsed /. 1e3
           else 0.0));
    match wave_hist with
    | None -> ()
    | Some h ->
        let t = now () in
        Telemetry.Metrics.observe h (t -. !wave_t0);
        wave_t0 := t
  in
  (* Invariants are resolved once per run — staged (layouts and step
     kinds resolved up front), or the plain [holds] for the reference
     run — and run on the scratch buffer (identical contents to what
     was just stored). *)
  let inv_names =
    Array.of_list (List.map (fun inv -> inv.Invariant.name) invariants)
  in
  let checks =
    Array.of_list
      (List.map
         (fun inv ->
           if interpreted then inv.Invariant.holds sys
           else Invariant.stage inv sys)
         invariants)
  in
  let nchecks = Array.length checks in
  (* A violation or deadlock unwinds the search first ([Bad (id, k)]:
     invariant [k], or [-1] for a deadlock), so the trace rebuild below
     never runs inside a successor callback. *)
  let exception Bad of int * int in
  let exception Full in
  let vet id' buf =
    if Store.length idx > max_states then raise Full;
    let k = ref 0 in
    while !k < nchecks && (Array.unsafe_get checks !k) buf do
      incr k
    done;
    if !k < nchecks then raise (Bad (id', !k))
  in
  let any = ref false in
  let on_successor ~pid ~from_pc ~alt:_ ~flick:_ =
    any := true;
    incr generated;
    canon scratch;
    if Store.probe idx scratch = -1 then begin
      let id' = Store.add_probed idx scratch in
      (match parents with
      | None -> ()
      | Some p ->
          ignore (Vec.push p.parent (!cursor - 1));
          ignore (Vec.push p.via_pid pid);
          ignore (Vec.push p.via_pc from_pc));
      vet id' scratch
    end
  in
  let loop () =
    let init = System.initial sys in
    canon init;
    incr generated;
    (match Store.add idx init with
    | Some id -> vet id init
    | None -> assert false);
    (* BFS depth by wave boundary: the depth rises when the cursor
       reaches the first state of a new wave that it expands.  A state
       the constraint rejects is stored and checked but skipped here,
       and a wave holding only such states is not a wave of the
       search. *)
    let boundary = ref (Store.length idx) and wave = ref 0 in
    ignore (Vec.push starts 0);
    ignore (Vec.push starts !boundary);
    while !cursor < Store.length idx do
      if !cursor = !boundary then begin
        incr wave;
        boundary := Store.length idx;
        ignore (Vec.push starts !boundary)
      end;
      let id = !cursor in
      cursor := id + 1;
      Store.read_into idx id current;
      if expand current then begin
        if !wave > !max_depth then
          on_wave ~depth:!wave ~frontier:(!boundary - id);
        tick ();
        any := false;
        successors ~only:(Reduce.ample red current) current ~scratch
          on_successor;
        (* An ample process is enabled by construction, so [only >= 0]
           never masks a deadlock. *)
        if check_deadlock && not !any then raise (Bad (id, -1))
      end
    done
  in
  let outcome =
    match loop () with
    | () -> Pass
    | exception Full -> Capacity
    | exception Bad (id, k) ->
        let trace = trace id in
        if k < 0 then Deadlock { trace }
        else Violation { invariant = inv_names.(k); trace }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge m "explore.store_bytes")
        (float_of_int (Store.arena_bytes idx)));
  let stats =
    {
      generated = !generated;
      distinct = Store.length idx;
      depth = !max_depth;
      runtime = now () -. t0;
    }
  in
  record_finish ?progress ?metrics ~prefix:"explore" outcome stats;
  ({ outcome; stats }, idx)

let run ?invariants ?constraint_ ?(max_states = 5_000_000) ?(check_deadlock = true)
    ?(interpreted = false) ?(reduce = Reduce.Off) ?progress ?metrics sys =
  let invariants =
    match invariants with Some l -> l | None -> Lazy.force default_invariants
  in
  (* Both reductions are only sound when every checked invariant reads
     nothing but pcs and shared cells; a pid- or local-sensitive custom
     invariant silently turns the whole reduction off. *)
  let red =
    if reduce = Reduce.Off || Reduce.invariants_reducible invariants then
      Reduce.make reduce sys
    else Reduce.make Reduce.Off sys
  in
  let parents = if interpreted then Some (new_parents ()) else None in
  fst
    (search ~invariants ~constraint_ ~max_states ~check_deadlock ~interpreted
       ~parents ~red ~progress ~metrics sys)

let run_graph ?constraint_ ?(max_states = 5_000_000) sys =
  let p = new_parents () in
  let r, idx =
    search ~invariants:[] ~constraint_ ~max_states ~check_deadlock:false
      ~interpreted:false ~parents:(Some p) ~red:(Reduce.make Reduce.Off sys)
      ~progress:None ~metrics:None sys
  in
  (* Materialize boxed states for the graph consumers (lassos, coverage,
     dot rendering): one pass, outside the search loop. *)
  let states = Vec.create () in
  for id = 0 to Store.length idx - 1 do
    ignore (Vec.push states (Store.get idx id))
  done;
  ( {
      sys;
      states;
      parent = p.parent;
      via_pid = p.via_pid;
      via_pc = p.via_pc;
      id_of = (fun s -> Store.find_opt idx s);
    },
    r.stats )
