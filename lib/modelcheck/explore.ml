(* Sequential BFS over the induced transition system.

   Two engines share this file and produce bit-identical results:

   - the default path ([interpreted = false]) runs the compiled actions
     fused with dedup: each candidate successor is built in one reusable
     scratch buffer, probed against the bit-packed {!Store}, and packed
     into its arena only if genuinely new.  The frontier is a cursor
     over store ids.  No parent or move is kept per state, only the
     first id of each BFS wave: a counterexample is rebuilt by
     re-expanding the wave above each of its states (see [trace]).  Per
     expanded state nothing is allocated on the OCaml heap: the
     successor callback, the staged invariants and the cursor are set up
     once per run, and the store grows by whole chunks.  The test
     "Explore.run allocates < 1 word per state" in
     test/test_modelcheck.ml pins this (about 0.06 minor words per
     distinct state on bakery_pp N=3/M=2, all of it per-run, per-wave
     and per-chunk set-up);
   - [interpreted = true] is the seed engine, kept verbatim as the
     measured baseline and differential reference: list-of-moves
     successors from the AST interpreter, one boxed array per generated
     state, a generic [Hashtbl] keyed on packed arrays, a {!Wave}
     frontier. *)

module Tbl = Hashtbl.Make (struct
  type t = State.packed

  let equal = State.equal
  let hash = State.hash
end)

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
  let canon = Reduce.canonizer red in
  let t0 = now () in
  let generated = ref 0 in
  let max_depth = ref 0 in
  let finish ~distinct outcome =
    let stats =
      {
        generated = !generated;
        distinct;
        depth = !max_depth;
        runtime = now () -. t0;
      }
    in
    record_finish ?progress ?metrics ~prefix:"explore" outcome stats;
    { outcome; stats }
  in
  let first_violated s =
    let rec go = function
      | [] -> None
      | inv :: rest ->
          (match Invariant.check inv sys s with
          | Some name -> Some name
          | None -> go rest)
    in
    go invariants
  in
  let expand s =
    match constraint_ with None -> true | Some c -> c sys s
  in
  let exception Stop of result in
  (* The compiled engine: dedup-before-copy BFS on the packed store,
     frontier as a cursor over store ids. *)
  let run_compiled () =
    let idx = Store.create () in
    let steps = (System.program sys).Mxlang.Ast.steps in
    let finish outcome =
      (match metrics with
      | None -> ()
      | Some m ->
          Telemetry.Metrics.set
            (Telemetry.Metrics.gauge m "explore.store_bytes")
            (float_of_int (Store.arena_bytes idx)));
      finish ~distinct:(Store.length idx) outcome
    in
    let lay = System.layout sys in
    (* Wave boundaries: the first id of every wave so far, then the end
       of the wave being expanded, so wave [w] holds the ids from
       [starts.(w)] up to [starts.(w+1)] (or the store's end).  One int
       per wave is all the search keeps for counterexamples. *)
    let starts = Vec.create () in
    let wave_of id =
      let w = ref 0 in
      while !w + 1 < Vec.length starts && Vec.get starts (!w + 1) <= id do
        incr w
      done;
      !w
    in
    (* No parent is stored per state.  The parent of a state in wave [w]
       is the first state of wave [w-1], in id order, that the search
       expanded and that yields it as a successor: that expansion is the
       one that inserted it.  Re-expanding wave [w-1] under the same
       constraint, ample filter and canonizer finds that state and the
       move, in the search's own order, so the trace is the one a stored
       parent pointer would give.  The cost is at most one pass over the
       waves above the target, paid only when a trace is asked for. *)
    let trace id =
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
                System.iter_successors_only ~only:(Reduce.ample red buf) sys
                  buf ~scratch:succ (fun ~pid ~from_pc ~alt:_ ~flick:_ ->
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
      Reduce.decanonicalize red (walk id (wave_of id) [])
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
              ( "distinct",
                Telemetry.Json.Num (float_of_int (Store.length idx)) );
              ( "queue",
                Telemetry.Json.Num
                  (float_of_int (Store.length idx - !cursor)) );
              ( "kstates_s",
                Telemetry.Json.Num
                  (if elapsed > 0.0 then
                     float_of_int !generated /. elapsed /. 1e3
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
      | Some m ->
          Some (Telemetry.Metrics.histogram m "explore.wave_s")
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
          Telemetry.Metrics.set g_bytes
            (float_of_int (Store.arena_bytes idx));
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
    (* Invariants are staged once per run (layouts and step kinds
       resolved up front); they run on the scratch buffer (identical
       contents to what was just stored). *)
    let staged_names =
      Array.of_list (List.map (fun inv -> inv.Invariant.name) invariants)
    in
    let staged =
      Array.of_list (List.map (fun inv -> Invariant.stage inv sys) invariants)
    in
    let nstaged = Array.length staged in
    (* A violation or deadlock unwinds the search first ([Bad (id, k)]:
       staged invariant [k], or [-1] for a deadlock), so the trace
       rebuild below never runs inside a successor callback. *)
    let exception Bad of int * int in
    let vet id' buf =
      if Store.length idx > max_states then raise (Stop (finish Capacity));
      let k = ref 0 in
      while !k < nstaged && (Array.unsafe_get staged !k) buf do
        incr k
      done;
      if !k < nstaged then raise (Bad (id', !k))
    in
    let any = ref false in
    let on_successor ~pid:_ ~from_pc:_ ~alt:_ ~flick:_ =
      any := true;
      incr generated;
      canon scratch;
      if Store.probe idx scratch = -1 then
        vet (Store.add_probed idx scratch) scratch
    in
    let search () =
      let init = System.initial sys in
      canon init;
      incr generated;
      (match Store.add idx init with
      | Some id -> vet id init
      | None -> assert false);
      (* BFS depth by wave boundary, as in {!Wave.drive}: the depth rises
         when the cursor reaches the first state of a new wave that it
         expands.  A state the constraint rejects is stored and checked
         but skipped here, and a wave holding only such states is not a
         wave of the search. *)
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
          System.iter_successors_only ~only:(Reduce.ample red current) sys
            current ~scratch on_successor;
          (* An ample process is enabled by construction, so [only >= 0]
             never masks a deadlock. *)
          if check_deadlock && not !any then raise (Bad (id, -1))
        end
      done
    in
    match search () with
    | () -> finish Pass
    | exception Bad (id, k) ->
        let trace = trace id in
        finish
          (if k < 0 then Deadlock { trace }
           else Violation { invariant = staged_names.(k); trace })
  in
  (* The seed engine, preserved as baseline: one hash to probe, a second
     to insert, a move list per state, a fresh array per candidate. *)
  let run_interpreted () =
    let parent = Vec.create () in
    let via_pid = Vec.create () in
    let via_pc = Vec.create () in
    let push_meta ~parent:par ~pid ~pc =
      ignore (Vec.push parent par);
      ignore (Vec.push via_pid pid);
      ignore (Vec.push via_pc pc)
    in
    let tbl = Tbl.create 4096 in
    let states = Vec.create () in
    let finish outcome = finish ~distinct:(Vec.length states) outcome in
    let trace id =
      Reduce.decanonicalize red
        (trace_of sys ~state_of:(Vec.get states) ~parent ~via_pid ~via_pc id)
    in
    let wave = Wave.create () in
    let tick =
      match progress with
      | None -> fun () -> ()
      | Some p ->
          let fields () =
            let elapsed = now () -. t0 in
            [
              ("depth", Telemetry.Json.Num (float_of_int !max_depth));
              ("generated", Telemetry.Json.Num (float_of_int !generated));
              ( "distinct",
                Telemetry.Json.Num (float_of_int (Vec.length states)) );
              ("queue", Telemetry.Json.Num (float_of_int (Wave.pending wave)));
              ( "kstates_s",
                Telemetry.Json.Num
                  (if elapsed > 0.0 then
                     float_of_int !generated /. elapsed /. 1e3
                   else 0.0) );
            ]
          in
          fun () -> Telemetry.Progress.tick p fields
    in
    let add ~parent ~pid ~pc s =
      match Tbl.find_opt tbl s with
      | Some _ -> None
      | None ->
          let id = Vec.push states s in
          Tbl.add tbl s id;
          push_meta ~parent ~pid ~pc;
          Some id
    in
    let check_state id s =
      match first_violated s with
      | Some invariant -> Some (Violation { invariant; trace = trace id })
      | None -> None
    in
    let init = System.initial sys in
    canon init;
    incr generated;
    (match add ~parent:(-1) ~pid:(-1) ~pc:(-1) init with
    | Some id -> (
        match check_state id init with
        | Some bad -> raise (Stop (finish bad))
        | None -> if expand init then Wave.push wave id)
    | None -> assert false);
    Wave.drive
      ~on_wave:(fun ~depth ~frontier:_ -> max_depth := depth)
      wave
      (fun id ->
        tick ();
        let s = Vec.get states id in
        let moves = System.successors_interpreted sys s in
        if check_deadlock && moves = [] then
          raise (Stop (finish (Deadlock { trace = trace id })));
        let only = Reduce.ample red s in
        let moves =
          if only < 0 then moves
          else List.filter (fun (m : System.move) -> m.pid = only) moves
        in
        List.iter
          (fun (m : System.move) ->
            incr generated;
            canon m.dest;
            match add ~parent:id ~pid:m.pid ~pc:m.from_pc m.dest with
            | None -> ()
            | Some id' -> (
                if Vec.length states > max_states then
                  raise (Stop (finish Capacity));
                match check_state id' m.dest with
                | Some bad -> raise (Stop (finish bad))
                | None -> if expand m.dest then Wave.push wave id'))
          moves);
    finish Pass
  in
  try if interpreted then run_interpreted () else run_compiled ()
  with Stop r -> r

let run_graph ?constraint_ ?(max_states = 5_000_000) sys =
  let t0 = now () in
  let idx = Store.create () in
  let parent = Vec.create () in
  let via_pid = Vec.create () in
  let via_pc = Vec.create () in
  let generated = ref 0 in
  let max_depth = ref 0 in
  let expand s = match constraint_ with None -> true | Some c -> c sys s in
  let push_meta ~parent:par ~pid ~pc =
    ignore (Vec.push parent par);
    ignore (Vec.push via_pid pid);
    ignore (Vec.push via_pc pc)
  in
  let lay = System.layout sys in
  let scratch = Array.make lay.State.words 0 in
  let current = Array.make lay.State.words 0 in
  let wave = Wave.create () in
  let init = System.initial sys in
  incr generated;
  (match Store.add idx init with
  | Some id ->
      push_meta ~parent:(-1) ~pid:(-1) ~pc:(-1);
      if expand init then Wave.push wave id
  | None -> assert false);
  let exception Full in
  (try
     Wave.drive
       ~on_wave:(fun ~depth ~frontier:_ -> max_depth := depth)
       wave
       (fun id ->
         Store.read_into idx id current;
         System.iter_successors_scratch sys current ~scratch
           (fun ~pid ~from_pc ~alt:_ ~flick:_ ->
             incr generated;
             if Store.probe idx scratch = -1 then begin
               let id' = Store.add_probed idx scratch in
               push_meta ~parent:id ~pid ~pc:from_pc;
               if Store.length idx > max_states then raise Full;
               if expand scratch then Wave.push wave id'
             end))
   with Full -> ());
  (* Materialize boxed states for the graph consumers (lassos, coverage,
     dot rendering): one pass, outside the search loop. *)
  let states = Vec.create () in
  for id = 0 to Store.length idx - 1 do
    ignore (Vec.push states (Store.get idx id))
  done;
  ( { sys; states; parent; via_pid; via_pc; id_of = (fun s -> Store.find_opt idx s) },
    {
      generated = !generated;
      distinct = Store.length idx;
      depth = !max_depth;
      runtime = now () -. t0;
    } )
