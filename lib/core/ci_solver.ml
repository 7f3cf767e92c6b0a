type schedule = Workbag.schedule = Fifo | Lifo | Random_order of int

type config = {
  strong_updates : bool;
  schedule : schedule;
}

let default_config = { strong_updates = true; schedule = Fifo }

(* A discovered call edge: the callee's metadata, resolved once when the
   edge is found, plus the mapping from callee formal index to actual
   argument index (identity for ordinary calls; special for higher-order
   extern summaries like qsort). *)
type callee_edge = {
  ce_meta : Vdg.fun_meta;
  ce_argmap : int array option;  (* None = identity *)
}

let edge_name e = e.ce_meta.Vdg.fm_name

(* Work the sharded parallel solver must hand to another shard: a fact
   for a foreign output, a worklist notification for a foreign consumer,
   or a caller registration at a foreign callee.  The sequential solver
   owns every node and never emits one of these. *)
type remote_event =
  | Rflow_out of Vdg.node_id * Ptpair.t
  | Rflow_in of Vdg.node_id * int * Ptpair.t
  | Rnew_caller of string * Vdg.node_id

type sharding =
  | Sequential
  | Sharded of { sh_owns : Vdg.node_id -> bool; sh_emit : remote_event -> unit }

type t = {
  g : Vdg.t;
  config : config;
  budget : Budget.t;
  pts : Ptpair.Set.t array;
  (* (consumer, input index, pair).  No membership guard: a push only
     follows the first [Ptpair.Set.add] of a pair at its producer, and
     each (consumer, input) has exactly one producer, so an item is never
     queued twice (test_ptset checks the exact push count). *)
  worklist : (Vdg.node_id * int * Ptpair.t) Workbag.t;
  mutable flow_in_count : int;
  mutable flow_out_count : int;
  mutable ptset_stats : Ptset.stats option;  (* per-solve delta, set at fixpoint *)
  call_callees : (Vdg.node_id, callee_edge list ref) Hashtbl.t;
  (* each caller's call metadata, resolved once at registration *)
  fun_callers : (string, Vdg.call_meta list ref) Hashtbl.t;
  ext_callees : (Vdg.node_id, string list ref) Hashtbl.t;
  (* sharding hooks (Par_solver): [owns] says whether this state is
     responsible for a node's output; flows destined for un-owned nodes
     go through [emit] to the owning shard instead of being applied
     here.  Kept as a variant rather than function fields so sequential
     solutions stay Marshal-safe for the disk cache — only live shard
     states (never marshaled) carry closures. *)
  sharding : sharding;
  (* counter offsets so a solution assembled from parallel shards can
     report their summed worklist traffic through a fresh workbag *)
  mutable push_base : int;
  mutable pop_base : int;
}

let graph t = t.g
let pairs t nid = t.pts.(nid)
let flow_in_count t = t.flow_in_count
let flow_out_count t = t.flow_out_count
let worklist_pushes t = t.push_base + Workbag.pushed t.worklist
let worklist_pops t = t.pop_base + Workbag.popped t.worklist

let ptset_stats t =
  match t.ptset_stats with
  | Some s -> s
  | None -> Ptset.delta ~before:(Ptset.stats ()) ~after:(Ptset.stats ())

let callees t call =
  match Hashtbl.find_opt t.call_callees call with
  | Some cell -> List.map edge_name !cell
  | None -> []

let caller_metas t fname =
  match Hashtbl.find_opt t.fun_callers fname with Some cell -> !cell | None -> []

let callers t fname = List.map (fun cm -> cm.Vdg.cm_call) (caller_metas t fname)

let callee_edges t call =
  match Hashtbl.find_opt t.call_callees call with
  | Some cell -> List.map (fun e -> (edge_name e, e.ce_argmap)) !cell
  | None -> []

let extern_callees t call =
  match Hashtbl.find_opt t.ext_callees call with Some cell -> !cell | None -> []

(* ---- flow-out: add a pair to an output, notify consumers ------------------- *)

let owns t nid =
  match t.sharding with Sequential -> true | Sharded s -> s.sh_owns nid

let emit t ev =
  match t.sharding with
  | Sequential -> assert false (* unreachable: sequential owns every node *)
  | Sharded s -> s.sh_emit ev

let rec flow_out t output pair =
  if not (owns t output) then emit t (Rflow_out (output, pair))
  else begin
  t.flow_out_count <- t.flow_out_count + 1;
  Budget.tick_meet t.budget;
  if Ptpair.Set.add t.pts.(output) pair then begin
    List.iter
      (fun (consumer, idx) ->
        if owns t consumer then Workbag.add t.worklist (consumer, idx, pair)
        else emit t (Rflow_in (consumer, idx, pair)))
      (Vdg.consumers t.g output);
    (* return values/stores flow to every discovered call site *)
    match (Vdg.node t.g output).Vdg.nkind with
    | Vdg.Nret_value fname ->
      List.iter
        (fun cm ->
          match cm.Vdg.cm_result with
          | Some res -> flow_out t res pair
          | None -> ())
        (caller_metas t fname)
    | Vdg.Nret_store fname ->
      List.iter (fun cm -> flow_out t cm.Vdg.cm_cstore pair) (caller_metas t fname)
    | _ -> ()
  end
  end

(* ---- call-edge discovery ----------------------------------------------------- *)

(* actual argument output feeding a callee formal, under an edge's argmap *)
let actual_for cm argmap formal_idx =
  match argmap with
  | None ->
    if formal_idx < Array.length cm.Vdg.cm_args then Some cm.Vdg.cm_args.(formal_idx)
    else None
  | Some map ->
    if formal_idx < Array.length map && map.(formal_idx) < Array.length cm.Vdg.cm_args
    then Some cm.Vdg.cm_args.(map.(formal_idx))
    else None

(* record [cm] as a caller of [fname]; [false] if it already was one *)
let add_caller t fname (cm : Vdg.call_meta) =
  let cell =
    match Hashtbl.find_opt t.fun_callers fname with
    | Some c -> c
    | None ->
      let c = ref [] in
      Hashtbl.add t.fun_callers fname c;
      c
  in
  if List.exists (fun c -> c.Vdg.cm_call = cm.Vdg.cm_call) !cell then false
  else begin
    cell := cm :: !cell;
    true
  end

(* the callee's existing return facts flow back to the call site *)
let back_flow t (cm : Vdg.call_meta) (meta : Vdg.fun_meta) =
  (match cm.Vdg.cm_result, meta.Vdg.fm_ret_value with
  | Some res, Some rv -> Ptpair.Set.iter (fun p -> flow_out t res p) t.pts.(rv)
  | _ -> ());
  Ptpair.Set.iter (fun p -> flow_out t cm.Vdg.cm_cstore p) t.pts.(meta.Vdg.fm_ret_store)

(* Record [call] as a caller of [fname] and back-flow the callee's
   existing return facts to the call site.  In the sequential solver
   this is inlined in {!add_defined_callee}; in the parallel solver it
   also runs at the callee's owning shard on receipt of [Rnew_caller]
   (the callee's pair sets may only be trusted at their owner — any
   stale remote read would miss facts the owner has not yet published,
   so the owner performs the authoritative back-flow). *)
let register_caller t fname call =
  let cm = Hashtbl.find t.g.Vdg.call_meta call in
  if add_caller t fname cm then back_flow t cm (Hashtbl.find t.g.Vdg.funs fname)

let add_defined_callee t call edge =
  let cell =
    match Hashtbl.find_opt t.call_callees call with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.add t.call_callees call cell;
      cell
  in
  let name = edge_name edge in
  if not (List.exists (fun e -> edge_name e = name && e.ce_argmap = edge.ce_argmap) !cell)
  then begin
    cell := edge :: !cell;
    (* repropagation: existing facts at the call site flow into the callee,
       and the callee's existing results flow back (paper: "a new function
       updates the call graph and performs appropriate repropagation") *)
    let cm = Hashtbl.find t.g.Vdg.call_meta call in
    let meta = edge.ce_meta in
    let callee_owned = owns t meta.Vdg.fm_formal_store in
    (* caller registration only; the per-edge back-flow below keeps the
       sequential flow order byte-for-byte *)
    if callee_owned then ignore (add_caller t name cm)
    else emit t (Rnew_caller (name, call));
    Array.iteri
      (fun formal_idx formal_out ->
        match actual_for cm edge.ce_argmap formal_idx with
        | Some actual ->
          Ptpair.Set.iter (fun p -> flow_out t formal_out p) t.pts.(actual)
        | None -> ())
      meta.Vdg.fm_formals;
    Ptpair.Set.iter
      (fun p -> flow_out t meta.Vdg.fm_formal_store p)
      t.pts.(cm.Vdg.cm_store);
    if callee_owned then back_flow t cm meta
  end

let rec add_extern_callee t call name =
  let cell =
    match Hashtbl.find_opt t.ext_callees call with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.add t.ext_callees call cell;
      cell
  in
  if not (List.mem name !cell) then begin
    cell := name :: !cell;
    let cm = Hashtbl.find t.g.Vdg.call_meta call in
    let fs = Hashtbl.find_opt t.g.Vdg.externs name in
    let summary = Extern_summary.lookup name fs in
    (* store identity *)
    Ptpair.Set.iter (fun p -> flow_out t cm.Vdg.cm_cstore p) t.pts.(cm.Vdg.cm_store);
    (* result summary *)
    (match cm.Vdg.cm_result, summary.Extern_summary.sum_returns with
    | Some res, Extern_summary.Ret_arg k when k < Array.length cm.Vdg.cm_args ->
      Ptpair.Set.iter (fun p -> flow_out t res p) t.pts.(cm.Vdg.cm_args.(k))
    | Some res, Extern_summary.Ret_external ext ->
      let base = Apath.mk_base t.g.Vdg.tbl (Apath.Bext ext) ~singular:false in
      flow_out t res
        (Ptpair.make (Apath.empty_offset t.g.Vdg.tbl) (Apath.of_base t.g.Vdg.tbl base))
    | _ -> ());
    (* higher-order arguments: existing function values on those arguments *)
    List.iter
      (fun (arg_idx, formal_map) ->
        if arg_idx < Array.length cm.Vdg.cm_args then
          Ptpair.Set.iter
            (fun p -> handle_function_value t call (Some (arg_idx, formal_map)) p)
            t.pts.(cm.Vdg.cm_args.(arg_idx)))
      summary.Extern_summary.sum_calls
  end

(* a function value arrived at a call: either on the fn input (via = None)
   or on a higher-order summary argument (via = Some (arg_idx, map)) *)
and handle_function_value t call via (pair : Ptpair.t) =
  match pair.Ptpair.referent.Apath.proot with
  | Some { Apath.bkind = Apath.Bfun name; _ } -> (
    match Hashtbl.find_opt t.g.Vdg.funs name with
    | Some meta -> add_defined_callee t call { ce_meta = meta; ce_argmap = Option.map snd via }
    | None -> if via = None then add_extern_callee t call name)
  | _ -> ()

(* ---- transfer functions ------------------------------------------------------- *)

let flow_in t (nid : Vdg.node_id) (idx : int) (pair : Ptpair.t) =
  t.flow_in_count <- t.flow_in_count + 1;
  Budget.tick_transfer t.budget;
  let n = Vdg.node t.g nid in
  let tbl = t.g.Vdg.tbl in
  let input k = List.nth n.Vdg.ninputs k in
  match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nbase _ | Vdg.Nundef -> ()
  | Vdg.Nalloc _ -> ()  (* size input carries no pairs of interest *)
  | Vdg.Nlookup ->
    (* inputs: [loc; store] *)
    (match idx with
    | 0 ->
      let rl = pair.Ptpair.referent in
      if Apath.is_location rl then
        Ptpair.Set.iter
          (fun (sp : Ptpair.t) ->
            if Apath.dom rl sp.Ptpair.path then
              match Apath.subtract tbl sp.Ptpair.path rl with
              | Some off -> flow_out t nid (Ptpair.make off sp.Ptpair.referent)
              | None ->
                (* rl covers sp.path via truncation: unknown remainder *)
                flow_out t nid
                  (Ptpair.make (Apath.empty_offset tbl) sp.Ptpair.referent))
          t.pts.(input 1)
    | 1 ->
      Ptpair.Set.iter
        (fun (lp : Ptpair.t) ->
          let rl = lp.Ptpair.referent in
          if Apath.is_location rl && Apath.dom rl pair.Ptpair.path then
            match Apath.subtract tbl pair.Ptpair.path rl with
            | Some off -> flow_out t nid (Ptpair.make off pair.Ptpair.referent)
            | None ->
              flow_out t nid
                (Ptpair.make (Apath.empty_offset tbl) pair.Ptpair.referent))
        t.pts.(input 0)
    | _ -> ())
  | Vdg.Nupdate ->
    (* inputs: [loc; store; value]; output = new store *)
    let strong rl sp = t.config.strong_updates && Apath.strong_dom rl sp in
    (match idx with
    | 0 ->
      let rl = pair.Ptpair.referent in
      if Apath.is_location rl then begin
        Ptpair.Set.iter
          (fun (vp : Ptpair.t) ->
            if Apath.is_offset vp.Ptpair.path then
              flow_out t nid
                (Ptpair.make (Apath.append tbl rl vp.Ptpair.path) vp.Ptpair.referent))
          t.pts.(input 2);
        Ptpair.Set.iter
          (fun (sp : Ptpair.t) ->
            if not (strong rl sp.Ptpair.path) then flow_out t nid sp)
          t.pts.(input 1)
      end
    | 1 ->
      (* new store pair: propagated if at least one location does not
         strongly update it; blocked while no location pair has arrived *)
      let survives =
        Ptpair.Set.fold
          (fun (lp : Ptpair.t) acc ->
            acc
            || (Apath.is_location lp.Ptpair.referent
                && not (strong lp.Ptpair.referent pair.Ptpair.path)))
          t.pts.(input 0) false
      in
      if survives then flow_out t nid pair
    | 2 ->
      if Apath.is_offset pair.Ptpair.path then
        Ptpair.Set.iter
          (fun (lp : Ptpair.t) ->
            let rl = lp.Ptpair.referent in
            if Apath.is_location rl then
              flow_out t nid
                (Ptpair.make (Apath.append tbl rl pair.Ptpair.path) pair.Ptpair.referent))
          t.pts.(input 0)
    | _ -> ())
  | Vdg.Nfield_addr acc ->
    (* address arithmetic: referent path is extended by the accessor *)
    if idx = 0 && Apath.is_location pair.Ptpair.referent then
      flow_out t nid
        (Ptpair.make pair.Ptpair.path (Apath.extend tbl pair.Ptpair.referent acc))
  | Vdg.Noffset_read acc ->
    if idx = 0 then begin
      let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
      if Apath.dom acc_path pair.Ptpair.path then
        match Apath.subtract tbl pair.Ptpair.path acc_path with
        | Some off -> flow_out t nid (Ptpair.make off pair.Ptpair.referent)
        | None ->
          flow_out t nid (Ptpair.make (Apath.empty_offset tbl) pair.Ptpair.referent)
    end
  | Vdg.Noffset_write acc ->
    (* inputs: [agg; value] — a value-level member update *)
    let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
    (match idx with
    | 0 ->
      (* a member write definitely replaces that member of the value,
         except through an array accessor *)
      let killed =
        t.config.strong_updates && acc <> Apath.Index
        && Apath.dom acc_path pair.Ptpair.path
      in
      if not killed then flow_out t nid pair
    | 1 ->
      if Apath.is_offset pair.Ptpair.path then
        flow_out t nid
          (Ptpair.make (Apath.append tbl acc_path pair.Ptpair.path) pair.Ptpair.referent)
    | _ -> ())
  | Vdg.Ngamma -> flow_out t nid pair
  | Vdg.Nprimop Vdg.Ptr_arith -> if idx = 0 then flow_out t nid pair
  | Vdg.Nprimop (Vdg.Scalar_op _) -> ()
  | Vdg.Nformal _ | Vdg.Nformal_store _ ->
    (* inputs only exist for root wiring; interprocedural pairs arrive via
       direct flow_out from call sites *)
    flow_out t nid pair
  | Vdg.Nret_value _ | Vdg.Nret_store _ -> flow_out t nid pair
  | Vdg.Ncall ->
    (match idx with
    | 0 -> handle_function_value t nid None pair
    | 1 ->
      (* store input: forward to defined callees' formal stores and along
         extern identity summaries *)
      (match Hashtbl.find_opt t.call_callees nid with
      | Some cell ->
        List.iter (fun edge -> flow_out t edge.ce_meta.Vdg.fm_formal_store pair) !cell
      | None -> ());
      (match Hashtbl.find_opt t.ext_callees nid with
      | Some cell ->
        let cm = Hashtbl.find t.g.Vdg.call_meta nid in
        List.iter (fun _name -> flow_out t cm.Vdg.cm_cstore pair) !cell
      | None -> ())
    | k ->
      let arg_idx = k - 2 in
      (* defined callees: actual -> formal under each edge's argmap *)
      (match Hashtbl.find_opt t.call_callees nid with
      | Some cell ->
        List.iter
          (fun edge ->
            Array.iteri
              (fun formal_idx formal_out ->
                let maps_here =
                  match edge.ce_argmap with
                  | None -> formal_idx = arg_idx
                  | Some map ->
                    formal_idx < Array.length map && map.(formal_idx) = arg_idx
                in
                if maps_here then flow_out t formal_out pair)
              edge.ce_meta.Vdg.fm_formals)
          !cell
      | None -> ());
      (* extern callees: result-from-arg and higher-order summaries *)
      (match Hashtbl.find_opt t.ext_callees nid with
      | Some cell ->
        let cm = Hashtbl.find t.g.Vdg.call_meta nid in
        List.iter
          (fun name ->
            let fs = Hashtbl.find_opt t.g.Vdg.externs name in
            let summary = Extern_summary.lookup name fs in
            (match cm.Vdg.cm_result, summary.Extern_summary.sum_returns with
            | Some res, Extern_summary.Ret_arg k' when k' = arg_idx ->
              flow_out t res pair
            | _ -> ());
            List.iter
              (fun (ho_idx, formal_map) ->
                if ho_idx = arg_idx then
                  handle_function_value t nid (Some (ho_idx, formal_map)) pair)
              summary.Extern_summary.sum_calls)
          !cell
      | None -> ()))
  | Vdg.Ncall_result _ | Vdg.Ncall_store _ ->
    (* written directly by return propagation; the anchor edge carries
       nothing *)
    ()

(* ---- driver ---------------------------------------------------------------------- *)

let seed_node t (n : Vdg.node) =
  let tbl = t.g.Vdg.tbl in
  match n.Vdg.nkind with
  | Vdg.Nbase b | Vdg.Nalloc b ->
    flow_out t n.Vdg.nid (Ptpair.make (Apath.empty_offset tbl) (Apath.of_base tbl b))
  | _ -> ()

(* seed the initial store with argv's contents: argv[i] points to
   external string storage *)
let seed_entry t =
  let tbl = t.g.Vdg.tbl in
  if t.g.Vdg.entry_store >= 0 then begin
    let argv_arr = Apath.mk_base tbl (Apath.Bext "argv") ~singular:false in
    let argv_str = Apath.mk_base tbl (Apath.Bext "argv_strings") ~singular:false in
    let slot = Apath.extend tbl (Apath.of_base tbl argv_arr) Apath.Index in
    flow_out t t.g.Vdg.entry_store (Ptpair.make slot (Apath.of_base tbl argv_str))
  end

let seed t =
  Vdg.iter_nodes t.g (fun n -> seed_node t n);
  seed_entry t

let mk_state ?(config = default_config) ?budget ?pts ?(sharding = Sequential)
    (g : Vdg.t) : t =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let pts =
    match pts with
    | Some a -> a
    | None -> Array.init (Vdg.n_nodes g) (fun _ -> Ptpair.Set.create ())
  in
  {
    g;
    config;
    budget;
    pts;
    worklist = Workbag.create ~dummy:(-1, -1, Ptpair.dummy) config.schedule;
    flow_in_count = 0;
    flow_out_count = 0;
    ptset_stats = None;
    call_callees = Hashtbl.create 64;
    fun_callers = Hashtbl.create 64;
    ext_callees = Hashtbl.create 64;
    sharding;
    push_base = 0;
    pop_base = 0;
  }

(* one worklist item: pop and apply the transfer function; [false] when
   the worklist is empty *)
let step t =
  if Workbag.is_empty t.worklist then false
  else begin
    let nid, idx, pair = Workbag.pop t.worklist in
    flow_in t nid idx pair;
    true
  end

let solve ?(config = default_config) ?budget (g : Vdg.t) : t =
  let before = Ptset.stats () in
  let t = mk_state ~config ?budget g in
  seed t;
  while step t do
    ()
  done;
  t.ptset_stats <- Some (Ptset.delta ~before ~after:(Ptset.stats ()));
  t

(* ---- warm (region-restricted) solve ------------------------------------------ *)

(* Re-solve only a region of the graph, with everything outside it frozen
   at a previous solution.  Frozen nodes get their pairs preset without
   notifying consumers (the old fixpoint is already closed under the
   transfer functions inside the frozen region); frozen call sites get
   their discovered call edges preset without repropagation.  Work enters
   the region in three ways:

   - the normal seeding of the region's base/alloc nodes;
   - frozen->region consumer edges (root wiring): every preset pair of a
     frozen producer is enqueued at its region consumers;
   - frozen caller -> region callee call edges: the caller's preset
     actuals/store are injected into the callee's formal nodes, mirroring
     [add_defined_callee]'s repropagation.

   Region -> frozen flow happens through the ordinary mechanisms
   (discovery, return propagation); a frozen node that would have to
   *grow* marks the splice invalid — the caller re-runs with the node's
   procedure dirtied.  Shrinkage cannot be observed here (sets only
   grow); callers must compare interface summaries against the previous
   solution to detect it. *)

let enqueue t consumer idx pair = Workbag.add t.worklist (consumer, idx, pair)

let solve_warm ?(config = default_config) ?budget (g : Vdg.t)
    ~(frozen : bool array)
    ~(preset : (Vdg.node_id * Ptpair.t list) list)
    ~(calls : (Vdg.node_id * (string * int array option) list) list)
    ~(ext_calls : (Vdg.node_id * string list) list) : t * Vdg.node_id list =
  let before = Ptset.stats () in
  let t = mk_state ~config ?budget g in
  (* install frozen facts silently *)
  List.iter
    (fun (nid, pairs) ->
      List.iter (fun p -> ignore (Ptpair.Set.add t.pts.(nid) p)) pairs)
    preset;
  let baseline = Array.make (Vdg.n_nodes g) 0 in
  Array.iteri
    (fun nid is_frozen ->
      if is_frozen then baseline.(nid) <- Ptpair.Set.cardinal t.pts.(nid))
    frozen;
  (* install frozen call tables, without repropagation *)
  List.iter
    (fun (call, edges) ->
      let cm = Hashtbl.find g.Vdg.call_meta call in
      let cell = ref [] in
      Hashtbl.replace t.call_callees call cell;
      List.iter
        (fun (name, argmap) ->
          cell := { ce_meta = Hashtbl.find g.Vdg.funs name; ce_argmap = argmap } :: !cell;
          ignore (add_caller t name cm))
        (List.rev edges))
    calls;
  List.iter
    (fun (call, names) -> Hashtbl.replace t.ext_callees call (ref names))
    ext_calls;
  (* frozen -> region consumer edges *)
  Array.iteri
    (fun nid is_frozen ->
      if is_frozen then
        let consumers = Vdg.consumers g nid in
        if
          List.exists (fun (c, _) -> not frozen.(c)) consumers
        then
          Ptpair.Set.iter
            (fun p ->
              List.iter
                (fun (c, i) -> if not frozen.(c) then enqueue t c i p)
                consumers)
            t.pts.(nid))
    frozen;
  (* frozen caller -> region callee injection *)
  List.iter
    (fun (call, edges) ->
      let cm = Hashtbl.find g.Vdg.call_meta call in
      List.iter
        (fun (name, argmap) ->
          match Hashtbl.find_opt g.Vdg.funs name with
          | Some meta when not frozen.(meta.Vdg.fm_formal_store) ->
            Array.iteri
              (fun formal_idx formal_out ->
                match actual_for cm argmap formal_idx with
                | Some actual ->
                  Ptpair.Set.iter (fun p -> flow_out t formal_out p)
                    t.pts.(actual)
                | None -> ())
              meta.Vdg.fm_formals;
            Ptpair.Set.iter
              (fun p -> flow_out t meta.Vdg.fm_formal_store p)
              t.pts.(cm.Vdg.cm_store)
          | _ -> ())
        edges)
    calls;
  (* ordinary seeding: frozen nodes' base pairs are already preset, so
     only region nodes generate work *)
  seed t;
  while step t do
    ()
  done;
  t.ptset_stats <- Some (Ptset.delta ~before ~after:(Ptset.stats ()));
  let violations = ref [] in
  Array.iteri
    (fun nid is_frozen ->
      if is_frozen && Ptpair.Set.cardinal t.pts.(nid) > baseline.(nid) then
        violations := nid :: !violations)
    frozen;
  (t, List.rev !violations)

(* ---- parallel-solver internals ------------------------------------------------ *)

module Internal = struct
  let mk ?config ?pts ~owns ~emit g =
    mk_state ?config ?pts ~sharding:(Sharded { sh_owns = owns; sh_emit = emit }) g
  let flow_out = flow_out
  let enqueue = enqueue
  let register_caller = register_caller
  let seed_entry = seed_entry
  let step = step

  let seed_nodes t nids = List.iter (fun nid -> seed_node t (Vdg.node t.g nid)) nids
  let has_local_work t = not (Workbag.is_empty t.worklist)
  let raw_pushes t = Workbag.pushed t.worklist
  let raw_pops t = Workbag.popped t.worklist

  let call_entries t =
    Hashtbl.fold
      (fun call cell acc ->
        (call, List.map (fun e -> (edge_name e, e.ce_argmap)) !cell) :: acc)
      t.call_callees []

  let caller_entries t =
    Hashtbl.fold
      (fun f cell acc -> (f, List.map (fun cm -> cm.Vdg.cm_call) !cell) :: acc)
      t.fun_callers []

  let ext_entries t = Hashtbl.fold (fun call cell acc -> (call, !cell) :: acc) t.ext_callees []

  (* Build a finished solution from merged shard data.  [pts] slots must
     already be canonical sets interned in the calling domain's
     universe; call tables are installed verbatim. *)
  let assemble ?(config = default_config) (g : Vdg.t) ~(pts : Ptpair.Set.t array)
      ~(calls : (Vdg.node_id * (string * int array option) list) list)
      ~(callers : (string * Vdg.node_id list) list)
      ~(ext_calls : (Vdg.node_id * string list) list) ~flow_in_count ~flow_out_count
      ~pushes ~pops ~(ptset_stats : Ptset.stats) : t =
    let t = mk_state ~config ~pts g in
    List.iter
      (fun (call, edges) ->
        Hashtbl.replace t.call_callees call
          (ref
             (List.map
                (fun (name, argmap) ->
                  { ce_meta = Hashtbl.find g.Vdg.funs name; ce_argmap = argmap })
                edges)))
      calls;
    List.iter
      (fun (f, cs) ->
        Hashtbl.replace t.fun_callers f
          (ref (List.map (Hashtbl.find g.Vdg.call_meta) cs)))
      callers;
    List.iter (fun (call, names) -> Hashtbl.replace t.ext_callees call (ref names)) ext_calls;
    t.flow_in_count <- flow_in_count;
    t.flow_out_count <- flow_out_count;
    t.push_base <- pushes;
    t.pop_base <- pops;
    t.ptset_stats <- Some ptset_stats;
    t
end

let referenced_locations t nid =
  let n = Vdg.node t.g nid in
  match n.Vdg.nkind, n.Vdg.ninputs with
  | (Vdg.Nlookup | Vdg.Nupdate), loc :: _ ->
    let seen = Hashtbl.create 8 in
    Ptpair.Set.fold
      (fun p acc ->
        let r = p.Ptpair.referent in
        if Apath.is_location r && not (Hashtbl.mem seen r.Apath.pid) then begin
          Hashtbl.replace seen r.Apath.pid ();
          r :: acc
        end
        else acc)
      t.pts.(loc) []
    (* canonical order, not set-iteration order: a parallel solve's merged
       sets iterate (and intern pids) differently from a sequential
       solve's, so order by print form — the same canonicalization the
       solution digest uses — and reports built on this list cannot
       depend on --jobs *)
    |> List.map (fun p -> (Apath.to_string p, p))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
  | _ -> []
