type obs = int array

type failure = { impl_trace : Trace.t; bad_obs : obs }

type result = {
  included : bool;
  failure : failure option;
  complete : bool;
  impl_pairs : int;
  spec_states : int;
}

let phase_of_kind = function
  | Mxlang.Ast.Noncritical -> 0
  | Entry | Doorway | Waiting | Plain -> 1
  | Critical -> 2
  | Exit -> 3

let phase_obs sys s =
  let lay = System.layout sys in
  Array.init (System.nprocs sys) (fun i ->
      phase_of_kind (System.kind_of_pc sys (State.pc lay s i)))

let obs_equal (a : obs) (b : obs) = a = b

module StateTbl = Hashtbl.Make (struct
  type t = State.packed

  let equal = State.equal
  let hash = State.hash
end)

(* Interned specification states: stable ids so that sets of spec states
   can be canonicalized as sorted id lists. *)
type spec_store = {
  sys : System.t;
  ids : int StateTbl.t;
  states : State.packed Vec.t;
  expandable : State.packed -> bool;
}

let intern st s =
  match StateTbl.find_opt st.ids s with
  | Some id -> id
  | None ->
      let id = Vec.push st.states s in
      StateTbl.add st.ids s id;
      id

(* All spec states reachable from [seeds] through transitions that keep
   the observation equal to [o] (stutter closure), as a sorted id list. *)
let closure st ~obs_fn ~o seeds =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      acc := id :: !acc;
      let s = Vec.get st.states id in
      if st.expandable s then
        List.iter
          (fun (m : System.move) ->
            if obs_equal (obs_fn st.sys m.dest) o then visit (intern st m.dest))
          (System.successors st.sys s)
    end
  in
  List.iter visit seeds;
  List.sort_uniq compare !acc

(* One visible move: spec states reachable from the set by a single
   transition whose destination observation is [next_o], then
   stutter-closed. *)
let visible_step st ~obs_fn ~next_o set =
  let seeds = ref [] in
  List.iter
    (fun id ->
      let s = Vec.get st.states id in
      if st.expandable s then
        List.iter
          (fun (m : System.move) ->
            if obs_equal (obs_fn st.sys m.dest) next_o then
              seeds := intern st m.dest :: !seeds)
          (System.successors st.sys s))
    set;
  closure st ~obs_fn ~o:next_o (List.sort_uniq compare !seeds)

let check ~impl ~spec ?(obs_impl = phase_obs) ?(obs_spec = phase_obs)
    ?spec_constraint ?(max_pairs = 2_000_000) () =
  let spec_store =
    {
      sys = spec;
      ids = StateTbl.create 4096;
      states = Vec.create ();
      expandable =
        (match spec_constraint with
        | None -> fun _ -> true
        | Some c -> fun s -> c spec s);
    }
  in
  (* Implementation store with parent pointers for counterexamples. *)
  let impl_ids = StateTbl.create 4096 in
  let impl_states = Vec.create () in
  let parent = Vec.create () and via_pid = Vec.create () and via_pc = Vec.create () in
  let intern_impl ~p ~pid ~pc s =
    match StateTbl.find_opt impl_ids s with
    | Some id -> (id, false)
    | None ->
        let id = Vec.push impl_states s in
        StateTbl.add impl_ids s id;
        ignore (Vec.push parent p);
        ignore (Vec.push via_pid pid);
        ignore (Vec.push via_pc pc);
        (id, true)
  in
  (* Pairs (impl id, spec set) already visited. *)
  let pair_seen = Hashtbl.create 4096 in
  let pairs = ref 0 in
  let queue = Queue.create () in
  let exception Fail of failure in
  let exception Out_of_budget in
  let enqueue impl_id set o =
    let key = (impl_id, set) in
    if not (Hashtbl.mem pair_seen key) then begin
      Hashtbl.add pair_seen key ();
      incr pairs;
      if !pairs > max_pairs then raise Out_of_budget;
      Queue.push (impl_id, set, o) queue
    end
  in
  let result =
    try
      let i0 = System.initial impl in
      let o0 = obs_impl impl i0 in
      let s0 = System.initial spec in
      if not (obs_equal (obs_spec spec s0) o0) then
        raise
          (Fail
             {
               impl_trace =
                 [ { Trace.pid = -1; step_name = "<init>"; state = i0 } ];
               bad_obs = o0;
             });
      let set0 = closure spec_store ~obs_fn:obs_spec ~o:o0 [ intern spec_store s0 ] in
      let i0_id, _ = intern_impl ~p:(-1) ~pid:(-1) ~pc:(-1) i0 in
      enqueue i0_id set0 o0;
      while not (Queue.is_empty queue) do
        let impl_id, set, o = Queue.pop queue in
        let s = Vec.get impl_states impl_id in
        List.iter
          (fun (m : System.move) ->
            let o' = obs_impl impl m.dest in
            let id', _ = intern_impl ~p:impl_id ~pid:m.pid ~pc:m.from_pc m.dest in
            if obs_equal o' o then enqueue id' set o
            else begin
              let set' =
                visible_step spec_store ~obs_fn:obs_spec ~next_o:o' set
              in
              if set' = [] then
                raise
                  (Fail
                     {
                       impl_trace =
                         Explore.trace_of impl ~state_of:(Vec.get impl_states)
                           ~parent ~via_pid ~via_pc id';
                       bad_obs = o';
                     });
              enqueue id' set' o'
            end)
          (System.successors impl s)
      done;
      {
        included = true;
        failure = None;
        complete = true;
        impl_pairs = !pairs;
        spec_states = Vec.length spec_store.states;
      }
    with
    | Fail f ->
        {
          included = false;
          failure = Some f;
          complete = true;
          impl_pairs = !pairs;
          spec_states = Vec.length spec_store.states;
        }
    | Out_of_budget ->
        {
          included = true;
          failure = None;
          complete = false;
          impl_pairs = !pairs;
          spec_states = Vec.length spec_store.states;
        }
  in
  result
