(* Demand-driven restriction of the context-insensitive fixpoint.

   The solver state mirrors {!Ci_solver} — per-output pair sets, a
   schedulable work bag with a pending-membership guard, and the
   dynamically discovered call graph — plus one bit per node: [active].
   A node is activated when some query transitively demands its pairs;
   [flow_out] is a no-op on inactive outputs and only active consumers
   are notified, so the fixpoint never leaves the demanded slice.

   Activating a node does three things:
     - demands the inputs its transfer function reads (a lookup demands
       its location and store, a pointer primop its first input, ...;
       scalar inputs are never demanded),
     - re-delivers pairs already derived on its active inputs (a node
       activated late must see facts that flowed before it existed), and
     - for interprocedural nodes, wires it to the call edges discovered
       so far; conversely, discovering a new edge wires it to the
       *active* endpoints only, demanding the sources they now read.

   Demanding any formal triggers a one-time scan that activates every
   call anchor (and, through the anchor's activation hook, the slice of
   every function-value input), so call-graph discovery is complete for
   the demanded region.  The active set is thereby closed under every
   read the transfer functions perform, and the restricted monotone
   fixpoint equals the exhaustive solution on active nodes. *)

(* A discovered call edge: callee name plus the mapping from callee formal
   index to actual argument index (identity for ordinary calls; special
   for higher-order extern summaries like qsort). *)
type callee_edge = {
  ce_name : string;
  ce_argmap : int array option;  (* None = identity *)
}

type t = {
  g : Vdg.t;
  config : Ci_solver.config;
  budget : Budget.t;
  pts : Ptpair.Set.t array;
  active : bool array;
  act_queue : Vdg.node_id Queue.t;
  worklist : (Vdg.node_id * int * Ptpair.t) Workbag.t;
  pending : (int * int * int, unit) Hashtbl.t;
  mutable scanned : bool;  (* every call anchor activated (caller discovery) *)
  mutable queries : int;
  mutable cache_hits : int;
  mutable activated : int;
  mutable dup_skips : int;
  mutable flow_in_count : int;
  mutable flow_out_count : int;
  call_callees : (Vdg.node_id, callee_edge list ref) Hashtbl.t;
  fun_callers : (string, Vdg.node_id list ref) Hashtbl.t;
  ext_callees : (Vdg.node_id, string list ref) Hashtbl.t;
}

let graph t = t.g
let queries t = t.queries
let cache_hits t = t.cache_hits
let nodes_activated t = t.activated
let nodes_total t = Vdg.n_nodes t.g
let flow_in_count t = t.flow_in_count
let flow_out_count t = t.flow_out_count
let worklist_pushes t = Workbag.pushed t.worklist
let worklist_pops t = Workbag.popped t.worklist

let create ?(config = Ci_solver.default_config) ?budget (g : Vdg.t) : t =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  {
    g;
    config;
    budget;
    pts = Array.init (Vdg.n_nodes g) (fun _ -> Ptpair.Set.create ());
    active = Array.make (max 1 (Vdg.n_nodes g)) false;
    act_queue = Queue.create ();
    worklist = Workbag.create ~dummy:(-1, -1, Ptpair.dummy) config.Ci_solver.schedule;
    pending = Hashtbl.create 256;
    scanned = false;
    queries = 0;
    cache_hits = 0;
    activated = 0;
    dup_skips = 0;
    flow_in_count = 0;
    flow_out_count = 0;
    call_callees = Hashtbl.create 64;
    fun_callers = Hashtbl.create 64;
    ext_callees = Hashtbl.create 64;
  }

let callers t fname =
  match Hashtbl.find_opt t.fun_callers fname with Some cell -> !cell | None -> []

(* Demand a node: mark it and queue its activation hook.  The hook runs
   from the driver loop, never recursively. *)
let request t nid =
  if not t.active.(nid) then begin
    t.active.(nid) <- true;
    t.activated <- t.activated + 1;
    Queue.push nid t.act_queue
  end

let enqueue t consumer idx pair =
  let wkey = (consumer, idx, Ptpair.key pair) in
  if Hashtbl.mem t.pending wkey then t.dup_skips <- t.dup_skips + 1
  else begin
    Hashtbl.replace t.pending wkey ();
    Workbag.add t.worklist (consumer, idx, pair)
  end

(* Formals and formal stores read their callers' actuals, so the first
   such demand activates every call anchor; each anchor's activation hook
   demands its function-value slice, completing edge discovery for the
   demanded world. *)
let ensure_caller_scan t =
  if not t.scanned then begin
    t.scanned <- true;
    List.iter (fun call -> request t call) t.g.Vdg.calls
  end

(* actual argument output feeding a callee formal, under an edge's argmap *)
let actual_for cm edge formal_idx =
  match edge.ce_argmap with
  | None ->
    if formal_idx < Array.length cm.Vdg.cm_args then Some cm.Vdg.cm_args.(formal_idx)
    else None
  | Some map ->
    if formal_idx < Array.length map && map.(formal_idx) < Array.length cm.Vdg.cm_args
    then Some cm.Vdg.cm_args.(map.(formal_idx))
    else None

(* ---- flow-out: add a pair to a *demanded* output, notify demanded
   consumers ------------------------------------------------------------- *)

let rec flow_out t output pair =
  if t.active.(output) then begin
    t.flow_out_count <- t.flow_out_count + 1;
    Budget.tick_meet t.budget;
    if Ptpair.Set.add t.pts.(output) pair then begin
      let pkey = Ptpair.key pair in
      List.iter
        (fun (consumer, idx) ->
          if t.active.(consumer) then begin
            let wkey = (consumer, idx, pkey) in
            if Hashtbl.mem t.pending wkey then t.dup_skips <- t.dup_skips + 1
            else begin
              Hashtbl.replace t.pending wkey ();
              Workbag.add t.worklist (consumer, idx, pair)
            end
          end)
        (Vdg.consumers t.g output);
      (* return values/stores flow to every discovered call site whose
         companion has been demanded (flow_out self-gates) *)
      match (Vdg.node t.g output).Vdg.nkind with
      | Vdg.Nret_value fname ->
        List.iter
          (fun call ->
            let cm = Hashtbl.find t.g.Vdg.call_meta call in
            match cm.Vdg.cm_result with
            | Some res -> flow_out t res pair
            | None -> ())
          (callers t fname)
      | Vdg.Nret_store fname ->
        List.iter
          (fun call ->
            let cm = Hashtbl.find t.g.Vdg.call_meta call in
            flow_out t cm.Vdg.cm_cstore pair)
          (callers t fname)
      | _ -> ()
    end
  end

(* ---- call-edge discovery ----------------------------------------------------- *)

and add_defined_callee t call edge =
  let cell =
    match Hashtbl.find_opt t.call_callees call with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.add t.call_callees call cell;
      cell
  in
  if not (List.exists (fun e -> e.ce_name = edge.ce_name && e.ce_argmap = edge.ce_argmap) !cell)
  then begin
    cell := edge :: !cell;
    let callers_cell =
      match Hashtbl.find_opt t.fun_callers edge.ce_name with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add t.fun_callers edge.ce_name c;
        c
    in
    if not (List.mem call !callers_cell) then callers_cell := call :: !callers_cell;
    (* wire the new edge to its *demanded* endpoints: pull facts already
       derived across it, and demand the sources those endpoints read *)
    let cm = Hashtbl.find t.g.Vdg.call_meta call in
    let meta = Hashtbl.find t.g.Vdg.funs edge.ce_name in
    Array.iteri
      (fun formal_idx formal_out ->
        if t.active.(formal_out) then
          match actual_for cm edge formal_idx with
          | Some actual ->
            request t actual;
            Ptpair.Set.iter (fun p -> flow_out t formal_out p) t.pts.(actual)
          | None -> ())
      meta.Vdg.fm_formals;
    if t.active.(meta.Vdg.fm_formal_store) then begin
      request t cm.Vdg.cm_store;
      Ptpair.Set.iter
        (fun p -> flow_out t meta.Vdg.fm_formal_store p)
        t.pts.(cm.Vdg.cm_store)
    end;
    (match cm.Vdg.cm_result, meta.Vdg.fm_ret_value with
    | Some res, Some rv when t.active.(res) ->
      request t rv;
      Ptpair.Set.iter (fun p -> flow_out t res p) t.pts.(rv)
    | _ -> ());
    if t.active.(cm.Vdg.cm_cstore) then begin
      request t meta.Vdg.fm_ret_store;
      Ptpair.Set.iter
        (fun p -> flow_out t cm.Vdg.cm_cstore p)
        t.pts.(meta.Vdg.fm_ret_store)
    end
  end

and add_extern_callee t call name =
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
    (* store identity into a demanded post-call store *)
    if t.active.(cm.Vdg.cm_cstore) then begin
      request t cm.Vdg.cm_store;
      Ptpair.Set.iter (fun p -> flow_out t cm.Vdg.cm_cstore p) t.pts.(cm.Vdg.cm_store)
    end;
    (* result summary into a demanded result *)
    (match cm.Vdg.cm_result with
    | Some res when t.active.(res) -> deliver_extern_result t cm res summary
    | _ -> ());
    (* higher-order arguments feed call-graph discovery: always demand *)
    List.iter
      (fun (arg_idx, formal_map) ->
        if arg_idx < Array.length cm.Vdg.cm_args then begin
          request t cm.Vdg.cm_args.(arg_idx);
          Ptpair.Set.iter
            (fun p -> handle_function_value t call (Some (arg_idx, formal_map)) p)
            t.pts.(cm.Vdg.cm_args.(arg_idx))
        end)
      summary.Extern_summary.sum_calls
  end

and deliver_extern_result t cm res summary =
  match summary.Extern_summary.sum_returns with
  | Extern_summary.Ret_arg k when k < Array.length cm.Vdg.cm_args ->
    request t cm.Vdg.cm_args.(k);
    Ptpair.Set.iter (fun p -> flow_out t res p) t.pts.(cm.Vdg.cm_args.(k))
  | Extern_summary.Ret_external ext ->
    let base = Apath.mk_base t.g.Vdg.tbl (Apath.Bext ext) ~singular:false in
    flow_out t res
      (Ptpair.make (Apath.empty_offset t.g.Vdg.tbl) (Apath.of_base t.g.Vdg.tbl base))
  | _ -> ()

(* a function value arrived at a call: either on the fn input (via = None)
   or on a higher-order summary argument (via = Some (arg_idx, map)) *)
and handle_function_value t call via (pair : Ptpair.t) =
  match pair.Ptpair.referent.Apath.proot with
  | Some { Apath.bkind = Apath.Bfun name; _ } ->
    if Hashtbl.mem t.g.Vdg.funs name then
      add_defined_callee t call
        { ce_name = name; ce_argmap = Option.map snd via }
    else if via = None then add_extern_callee t call name
  | _ -> ()

(* ---- transfer functions (identical to Ci_solver's, over the gated
   flow_out) --------------------------------------------------------------- *)

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
    let strong rl sp = t.config.Ci_solver.strong_updates && Apath.strong_dom rl sp in
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
        t.config.Ci_solver.strong_updates && acc <> Apath.Index
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
    let cm = Hashtbl.find t.g.Vdg.call_meta nid in
    (match idx with
    | 0 -> handle_function_value t nid None pair
    | 1 ->
      (* store input: forward to defined callees' formal stores and along
         extern identity summaries *)
      (match Hashtbl.find_opt t.call_callees nid with
      | Some cell ->
        List.iter
          (fun edge ->
            let meta = Hashtbl.find t.g.Vdg.funs edge.ce_name in
            flow_out t meta.Vdg.fm_formal_store pair)
          !cell
      | None -> ());
      (match Hashtbl.find_opt t.ext_callees nid with
      | Some cell ->
        List.iter (fun _name -> flow_out t cm.Vdg.cm_cstore pair) !cell
      | None -> ())
    | k ->
      let arg_idx = k - 2 in
      (* defined callees: actual -> formal under each edge's argmap *)
      (match Hashtbl.find_opt t.call_callees nid with
      | Some cell ->
        List.iter
          (fun edge ->
            let meta = Hashtbl.find t.g.Vdg.funs edge.ce_name in
            Array.iteri
              (fun formal_idx formal_out ->
                let maps_here =
                  match edge.ce_argmap with
                  | None -> formal_idx = arg_idx
                  | Some map ->
                    formal_idx < Array.length map && map.(formal_idx) = arg_idx
                in
                if maps_here then flow_out t formal_out pair)
              meta.Vdg.fm_formals)
          !cell
      | None -> ());
      (* extern callees: result-from-arg and higher-order summaries *)
      (match Hashtbl.find_opt t.ext_callees nid with
      | Some cell ->
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

(* ---- activation hooks -------------------------------------------------------- *)

(* demand the first [k] inputs of a node (max_int = all) *)
let request_inputs t (n : Vdg.node) k =
  List.iteri
    (fun idx input -> if idx < k then request t input)
    n.Vdg.ninputs

(* wiring for nodes whose facts cross discovered call edges: when they
   are demanded after the edges already exist, consult the tables the
   same way [add_defined_callee]/[add_extern_callee] do for the reverse
   order *)
let wire_formal t formal_out f i =
  List.iter
    (fun call ->
      match Hashtbl.find_opt t.call_callees call with
      | None -> ()
      | Some cell ->
        let cm = Hashtbl.find t.g.Vdg.call_meta call in
        List.iter
          (fun edge ->
            if edge.ce_name = f then
              match actual_for cm edge i with
              | Some actual ->
                request t actual;
                Ptpair.Set.iter (fun p -> flow_out t formal_out p) t.pts.(actual)
              | None -> ())
          !cell)
    (callers t f)

let wire_formal_store t fstore f =
  List.iter
    (fun call ->
      let cm = Hashtbl.find t.g.Vdg.call_meta call in
      request t cm.Vdg.cm_store;
      Ptpair.Set.iter (fun p -> flow_out t fstore p) t.pts.(cm.Vdg.cm_store))
    (callers t f)

let wire_call_result t res call =
  let cm = Hashtbl.find t.g.Vdg.call_meta call in
  (match Hashtbl.find_opt t.call_callees call with
  | Some cell ->
    List.iter
      (fun edge ->
        let meta = Hashtbl.find t.g.Vdg.funs edge.ce_name in
        match meta.Vdg.fm_ret_value with
        | Some rv ->
          request t rv;
          Ptpair.Set.iter (fun p -> flow_out t res p) t.pts.(rv)
        | None -> ())
      !cell
  | None -> ());
  match Hashtbl.find_opt t.ext_callees call with
  | Some cell ->
    List.iter
      (fun name ->
        let fs = Hashtbl.find_opt t.g.Vdg.externs name in
        deliver_extern_result t cm res (Extern_summary.lookup name fs))
      !cell
  | None -> ()

let wire_call_store t cstore call =
  let cm = Hashtbl.find t.g.Vdg.call_meta call in
  (match Hashtbl.find_opt t.call_callees call with
  | Some cell ->
    List.iter
      (fun edge ->
        let meta = Hashtbl.find t.g.Vdg.funs edge.ce_name in
        request t meta.Vdg.fm_ret_store;
        Ptpair.Set.iter (fun p -> flow_out t cstore p) t.pts.(meta.Vdg.fm_ret_store))
      !cell
  | None -> ());
  match Hashtbl.find_opt t.ext_callees call with
  | Some cell when !cell <> [] ->
    request t cm.Vdg.cm_store;
    Ptpair.Set.iter (fun p -> flow_out t cstore p) t.pts.(cm.Vdg.cm_store)
  | _ -> ()

let on_activate t nid =
  Budget.tick_transfer t.budget;
  let n = Vdg.node t.g nid in
  let tbl = t.g.Vdg.tbl in
  (match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nprimop (Vdg.Scalar_op _) -> ()
  | Vdg.Nbase b | Vdg.Nalloc b ->
    flow_out t nid (Ptpair.make (Apath.empty_offset tbl) (Apath.of_base tbl b))
  | Vdg.Nundef ->
    (* the entry store carries the argv seed: argv[i] points to external
       string storage *)
    if nid = t.g.Vdg.entry_store then begin
      let argv_arr = Apath.mk_base tbl (Apath.Bext "argv") ~singular:false in
      let argv_str = Apath.mk_base tbl (Apath.Bext "argv_strings") ~singular:false in
      let slot = Apath.extend tbl (Apath.of_base tbl argv_arr) Apath.Index in
      flow_out t nid (Ptpair.make slot (Apath.of_base tbl argv_str))
    end
  | Vdg.Nlookup -> request_inputs t n 2
  | Vdg.Nupdate -> request_inputs t n 3
  | Vdg.Nfield_addr _ | Vdg.Noffset_read _ | Vdg.Nprimop Vdg.Ptr_arith ->
    request_inputs t n 1
  | Vdg.Noffset_write _ -> request_inputs t n 2
  | Vdg.Ngamma -> request_inputs t n max_int
  | Vdg.Nformal (f, i) ->
    request_inputs t n max_int;  (* root wiring (argv etc.) *)
    ensure_caller_scan t;
    wire_formal t nid f i
  | Vdg.Nformal_store f ->
    request_inputs t n max_int;  (* root wiring (entry store chain) *)
    ensure_caller_scan t;
    wire_formal_store t nid f
  | Vdg.Nret_value _ | Vdg.Nret_store _ -> request_inputs t n max_int
  | Vdg.Ncall ->
    let cm = Hashtbl.find t.g.Vdg.call_meta nid in
    request t cm.Vdg.cm_fn
  | Vdg.Ncall_result call ->
    request t call;
    wire_call_result t nid call
  | Vdg.Ncall_store call ->
    request t call;
    wire_call_store t nid call);
  (* re-deliver pairs already derived on active inputs: this node was
     inactive when they flowed, so it was never notified *)
  List.iteri
    (fun idx input ->
      if t.active.(input) then
        Ptpair.Set.iter (fun p -> enqueue t nid idx p) t.pts.(input))
    n.Vdg.ninputs

(* ---- driver ---------------------------------------------------------------------- *)

let run t =
  while not (Queue.is_empty t.act_queue) || not (Workbag.is_empty t.worklist) do
    if not (Queue.is_empty t.act_queue) then on_activate t (Queue.pop t.act_queue)
    else begin
      let nid, idx, pair = Workbag.pop t.worklist in
      Hashtbl.remove t.pending (nid, idx, Ptpair.key pair);
      flow_in t nid idx pair
    end
  done

let quiescent t = Queue.is_empty t.act_queue && Workbag.is_empty t.worklist

let resolve t nid =
  t.queries <- t.queries + 1;
  if t.active.(nid) && quiescent t then t.cache_hits <- t.cache_hits + 1
  else begin
    request t nid;
    run t
  end;
  t.pts.(nid)

let referenced_locations t nid =
  let n = Vdg.node t.g nid in
  match n.Vdg.nkind, n.Vdg.ninputs with
  | (Vdg.Nlookup | Vdg.Nupdate), loc :: _ ->
    let pts = resolve t loc in
    let seen = Hashtbl.create 8 in
    Ptpair.Set.fold
      (fun p acc ->
        let r = p.Ptpair.referent in
        if Apath.is_location r && not (Hashtbl.mem seen r.Apath.pid) then begin
          Hashtbl.replace seen r.Apath.pid ();
          r :: acc
        end
        else acc)
      pts []
    |> List.rev
  | _ -> []
