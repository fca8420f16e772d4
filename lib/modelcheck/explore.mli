(** Breadth-first exhaustive exploration with invariant checking —
    the core of the TLC-replacement checker.

    BFS guarantees that a reported invariant violation comes with a
    shortest-possible counterexample trace, matching TLC's behaviour.

    {!run}, [run ~interpreted:true] and {!run_graph} share one search
    loop over the packed {!Store}; they differ only in where successors
    come from, how invariants are evaluated and whether a parent is
    recorded per state. *)

type stats = {
  generated : int;  (** successor states generated (with duplicates) *)
  distinct : int;  (** distinct states stored *)
  depth : int;  (** BFS depth reached *)
  runtime : float;  (** seconds *)
}

type outcome =
  | Pass
  | Violation of { invariant : string; trace : Trace.t }
  | Deadlock of { trace : Trace.t }
      (** a reachable state has no successor for any process *)
  | Capacity
      (** the [max_states] budget was exhausted before the frontier emptied *)

type result = { outcome : outcome; stats : stats }

(** Stored search graph, reusable by the SCC/lasso analyses. *)
type graph = {
  sys : System.t;
  states : State.packed Vec.t;
  parent : int Vec.t;  (** parent state id; -1 for the root *)
  via_pid : int Vec.t;
  via_pc : int Vec.t;
  id_of : State.packed -> int option;
}

val run :
  ?invariants:Invariant.t list ->
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  ?check_deadlock:bool ->
  ?interpreted:bool ->
  ?reduce:Reduce.mode ->
  ?progress:Telemetry.Progress.t ->
  ?metrics:Telemetry.Metrics.t ->
  System.t ->
  result
(** Explore all states reachable from the initial state.

    [invariants] default to [[Invariant.mutex; Invariant.no_overflow]].
    [constraint_] is TLC's state constraint: states violating it are
    still checked against the invariants but not expanded, closing
    otherwise-infinite state spaces (needed for the original, unbounded
    Bakery).  [max_states] (default 5_000_000) bounds memory.
    [interpreted] (default [false]) makes the run a differential
    reference on the same search loop: successors come from the AST
    interpreter ({!System.successors_interpreted}) instead of the
    compiled closures, invariants are evaluated through their plain
    [holds] instead of their staged form, and a parent is recorded per
    state, so a counterexample is read off the parent chain instead of
    rebuilt.  Outcome, traces, and state counts are identical either
    way.

    [reduce] (default [Off]) enables state-space reduction ({!Reduce}):
    [Sym] canonicalizes states under pid permutation when the program
    passes the static symmetry certificate (silently runs unreduced —
    with the reason available via {!Reduce.asymmetry_reason} — when it
    does not), [Sym_por] additionally expands only an ample process
    where one exists.  Verdicts agree with the unreduced search;
    [generated]/[distinct] counts are of the quotient.  Counterexample
    traces are always returned in original process coordinates.  If any
    invariant is not one of the built-in pc/shared-cell family, the
    reduction disables itself entirely.

    [progress] enables TLC-style rate-limited reporting (wave depth,
    states generated/distinct, queue length, kstates/s, store load
    factor, arena bytes) plus one forced summary line when the search
    ends; [metrics] accumulates the final stats and a wave-duration
    histogram into a registry ([explore.*]), plus live gauges refreshed
    once per wave — among them [explore.store_bytes], the bytes held by
    the store's arena and index, also set once at the end.  Both
    default to off, in which case the hot loop runs exactly one static
    no-op closure call per expanded state — the search itself is
    unchanged either way.

    The default search keeps no parent or move per state, only the
    first id of each BFS wave.  A counterexample is rebuilt when one is
    found, by re-expanding the wave above each of its states: at most
    one more pass over the waves above the violating state. *)

val run_graph :
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  System.t ->
  graph * stats
(** Exploration that keeps the whole reachable graph: the same search
    as {!run} with no invariants, no deadlock check and no reduction,
    recording a parent per state, then boxing every stored state.  It
    stops early only at [max_states].  Used by {!Lasso}, {!Coverage},
    {!Dot} and the fuzz oracles. *)

val trace_to : graph -> int -> Trace.t
(** Reconstruct the BFS path from the root to a stored state id. *)

val outcome_tag : outcome -> string
(** Short machine tag: ["pass"], ["violation:<invariant>"],
    ["deadlock"], ["capacity"]. *)

val record_finish :
  ?progress:Telemetry.Progress.t ->
  ?metrics:Telemetry.Metrics.t ->
  prefix:string ->
  outcome ->
  stats ->
  unit
(** Final telemetry for a finished search: one forced progress line and
    [<prefix>.*] registry entries.  Shared with {!Par_explore}. *)

val trace_of :
  System.t ->
  state_of:(int -> State.packed) ->
  parent:int Vec.t ->
  via_pid:int Vec.t ->
  via_pc:int Vec.t ->
  int ->
  Trace.t
(** {!trace_to} over any id-indexed representation of the search: the
    interpreted {!run} reads states from its {!Store}, and {!Refine}
    from its own implementation-state table. *)
