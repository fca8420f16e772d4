(* The traced run of a sequential check: the same BFS as
   {!Modelcheck.Explore.run}, re-driven from the benchmark's own code
   in per-wave phases so that each layer's public entry points run in
   one timed stretch per wave.

   Per wave, over the frontier and then over the candidates it yields:

   - ample:     {!Modelcheck.Reduce.ample} on every frontier state
   - step:      {!Modelcheck.System.iter_successors_scratch}, candidates
                copied into one flat wave buffer
   - hash:      {!Modelcheck.Fingerprint.hash} of every candidate
   - dedup:     {!Modelcheck.Store.probe}, then [add_probed] when new
   - invariant: the staged {!Modelcheck.Invariant}s on every new state

   Each phase is one span whose parent is the wave's span, so the
   wave's self time is the driver: frontier bookkeeping and the loops
   around the layer calls.  Every phase except hash copies one packed
   state per item out of a buffer ([Store.read_into] or a blit of the
   wave buffer); that copy is charged to the phase.  [Fingerprint.hash]
   is not on the sequential explorer's path (the store uses
   [State.hash]); it is timed here because the parallel explorer
   shards and deduplicates by it.  Symmetry canonicalisation is not
   replayed: no workload's model passes the symmetry certificate, so
   the explorer's canonicaliser is the identity on all of them. *)

module M = Modelcheck

type span = {
  name : string;
  wave : int;  (** a "wave" span's own index; a layer span's parent wave *)
  t0 : float;
  t1 : float;
}

type t = {
  distinct : int;
  generated : int;
  depth : int;
  problem : string option;  (** a violation or deadlock the replay met *)
  total_s : float;
  expanded : int;  (** states whose successors were generated *)
  ample_hits : int;  (** expanded states with a single ample process *)
  waves : int;
  arena_bytes : int;
  spans : span list;  (** in the order they ended *)
}

let layers = [ "ample"; "step"; "hash"; "dedup"; "invariant" ]

(* A growable flat int buffer. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 4096 0; n = 0 }

let reserve b extra =
  if b.n + extra > Array.length b.a then begin
    let a = Array.make (max (2 * Array.length b.a) (b.n + extra)) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end

let push b x =
  reserve b 1;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

let run ~reduce sys =
  let red = M.Reduce.make reduce sys in
  let staged =
    Array.of_list
      (List.map
         (fun inv -> (inv.M.Invariant.name, M.Invariant.stage inv sys))
         [ M.Invariant.mutex; M.Invariant.no_overflow ])
  in
  let w = (M.System.layout sys).M.State.words in
  let store = M.Store.create () in
  let cur = Array.make w 0 and scratch = Array.make w 0 in
  let cand = Array.make w 0 in
  let spans = ref [] in
  let timed name wave f =
    let t0 = Clock.now () in
    f ();
    spans := { name; wave; t0; t1 = Clock.now () } :: !spans
  in
  let frontier = ref (buf ()) and only = buf () in
  let cands = buf () and fresh = buf () in
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  let generated = ref 0 and expanded = ref 0 and hits = ref 0 in
  let depth = ref 0 and sink = ref 0 in
  let load j = Array.blit cands.a (j * w) cand 0 w in
  (* Phases over the candidates of one wave. *)
  let process wave next =
    let n = cands.n / w in
    generated := !generated + n;
    timed "hash" wave (fun () ->
        for j = 0 to n - 1 do
          load j;
          sink := !sink lxor M.Fingerprint.hash cand
        done);
    fresh.n <- 0;
    timed "dedup" wave (fun () ->
        for j = 0 to n - 1 do
          load j;
          if M.Store.probe store cand = -1 then begin
            push next (M.Store.add_probed store cand);
            push fresh j
          end
        done);
    timed "invariant" wave (fun () ->
        for k = 0 to fresh.n - 1 do
          load fresh.a.(k);
          Array.iter
            (fun (name, holds) -> if not (holds cand) then fail ("violation:" ^ name))
            staged
        done)
  in
  let t_start = Clock.now () in
  let wave = ref 0 in
  (* Wave 0 has the initial state as its only candidate. *)
  let first = buf () in
  timed "wave" 0 (fun () ->
      cands.n <- 0;
      reserve cands w;
      Array.blit (M.System.initial sys) 0 cands.a 0 w;
      cands.n <- w;
      process 0 first);
  frontier := first;
  while !frontier.n > 0 do
    incr wave;
    let wv = !wave and f = !frontier in
    let next = buf () in
    timed "wave" wv (fun () ->
        only.n <- 0;
        timed "ample" wv (fun () ->
            for i = 0 to f.n - 1 do
              M.Store.read_into store f.a.(i) cur;
              let o = M.Reduce.ample red cur in
              if o >= 0 then incr hits;
              push only o
            done);
        cands.n <- 0;
        timed "step" wv (fun () ->
            for i = 0 to f.n - 1 do
              M.Store.read_into store f.a.(i) cur;
              let before = cands.n in
              M.System.iter_successors_scratch ~only:only.a.(i) sys cur ~scratch
                (fun ~pid:_ ~from_pc:_ ~alt:_ ~flick:_ ->
                  reserve cands w;
                  Array.blit scratch 0 cands.a cands.n w;
                  cands.n <- cands.n + w);
              if cands.n = before then fail "deadlock"
            done);
        expanded := !expanded + f.n;
        process wv next);
    (* BFS depth is the last level that holds a state: the frontier
       expanded in wave [wv] is level [wv - 1]. *)
    if next.n > 0 then depth := wv;
    frontier := next
  done;
  ignore (Sys.opaque_identity !sink);
  {
    distinct = M.Store.length store;
    generated = !generated;
    depth = !depth;
    problem = !problem;
    total_s = Clock.now () -. t_start;
    expanded = !expanded;
    ample_hits = !hits;
    waves = !wave + 1;
    arena_bytes = M.Store.arena_bytes store;
    spans = List.rev !spans;
  }

(* Summed duration of every span with this name. *)
let layer_s t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 t.spans

(* The driver's self time: the traced total minus every layer span.
   Layer spans never overlap each other, so this plus the layer sums
   is the traced total exactly. *)
let driver_s t =
  List.fold_left (fun acc l -> acc -. layer_s t l) t.total_s layers

(* One JSON object per line.  A span's id is the leg (which system was
   replayed), its name and its wave index; a layer span's parent is the
   id of its wave span. *)
let write_spans t ~leg oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":\"%s/%s/%d\",\"name\":%S,\"parent\":%s,\"start_s\":%.9f,\"end_s\":%.9f}\n"
        leg s.name s.wave s.name
        (if s.name = "wave" then "null"
         else Printf.sprintf "\"%s/wave/%d\"" leg s.wave)
        s.t0 s.t1)
    t.spans
