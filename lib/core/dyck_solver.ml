(* Dyck-reachability alias analysis: field-sensitive, flow-insensitive.

   The machinery is an activation-gated saturation engine over the VDG:
   a node joins the fixpoint only once some query needs its value, and
   the store dimension is collapsed.  There is no store threading: one
   global pair set [gstore] stands for every store value in the program.
   Updates write into it (the location × value product, never killed),
   lookups read from it (accessor-chain matching via dom/subtract — the
   close-parenthesis move of the Dyck framing), and store-typed nodes
   (formal stores, return stores, call stores, the update outputs
   themselves) carry nothing and are never activated.

   Soundness ordering, relied on by the ladder and checked node-by-node
   in test_dyck.ml: every CI-derivable pair is Dyck-derivable.  Value
   flow here is CI's value flow minus the Noffset_write kill; store
   flow is coarser by construction — a pair a threaded CI store carries
   either is the argv entry seed (seeded into gstore) or was generated
   at some update from that update's (smaller) CI input sets.

   On-demand mode: a query activates the backward value slice of its
   node.  Demanding any lookup demands the store, which activates every
   update site (their location and value slices follow) — the global
   store has no per-lookup slice, which is the precision/laziness trade
   this tier makes.  Demanding any formal still triggers the one-time
   call-anchor scan so call-graph discovery is complete for the demanded
   region. *)

type callee_edge = {
  ce_name : string;
  ce_argmap : int array option;  (* None = identity *)
}

type t = {
  g : Vdg.t;
  config : Ci_solver.config;
  budget : Budget.t;
  pts : Ptpair.Set.t array;
  gstore : Ptpair.Set.t;
  active : bool array;
  act_queue : Vdg.node_id Queue.t;
  worklist : (Vdg.node_id * int * Ptpair.t) Workbag.t;
  pending : (int * int * int, unit) Hashtbl.t;
  mutable active_lookups : Vdg.node_id list;  (* notified on gstore growth *)
  mutable store_on : bool;   (* every update site activated, argv seeded *)
  mutable scanned : bool;    (* every call anchor activated *)
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
let store_size t = Ptpair.Set.cardinal t.gstore
let store_pairs t = Ptpair.Set.elements t.gstore
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
    gstore = Ptpair.Set.create ();
    active = Array.make (max 1 (Vdg.n_nodes g)) false;
    act_queue = Queue.create ();
    worklist = Workbag.create ~dummy:(-1, -1, Ptpair.dummy) config.Ci_solver.schedule;
    pending = Hashtbl.create 256;
    active_lookups = [];
    store_on = false;
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

let ensure_caller_scan t =
  if not t.scanned then begin
    t.scanned <- true;
    List.iter (fun call -> request t call) t.g.Vdg.calls
  end

(* A pair entered the global store: every demanded lookup re-matches. *)
let add_store t pair =
  Budget.tick_meet t.budget;
  if Ptpair.Set.add t.gstore pair then
    List.iter (fun lkp -> enqueue t lkp 1 pair) t.active_lookups

(* The global store is demanded as a whole: activate every update site
   (their input slices follow through on_activate) and seed the argv
   relation that CI keeps on the entry store. *)
let ensure_store t =
  if not t.store_on then begin
    t.store_on <- true;
    let tbl = t.g.Vdg.tbl in
    let argv_arr = Apath.mk_base tbl (Apath.Bext "argv") ~singular:false in
    let argv_str = Apath.mk_base tbl (Apath.Bext "argv_strings") ~singular:false in
    let slot = Apath.extend tbl (Apath.of_base tbl argv_arr) Apath.Index in
    add_store t (Ptpair.make slot (Apath.of_base tbl argv_str));
    Vdg.iter_nodes t.g (fun n ->
        if n.Vdg.nkind = Vdg.Nupdate then request t n.Vdg.nid)
  end

let actual_for cm edge formal_idx =
  match edge.ce_argmap with
  | None ->
    if formal_idx < Array.length cm.Vdg.cm_args then Some cm.Vdg.cm_args.(formal_idx)
    else None
  | Some map ->
    if formal_idx < Array.length map && map.(formal_idx) < Array.length cm.Vdg.cm_args
    then Some cm.Vdg.cm_args.(map.(formal_idx))
    else None

(* ---- flow-out: value outputs only (store facts go through add_store) ---- *)

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
      match (Vdg.node t.g output).Vdg.nkind with
      | Vdg.Nret_value fname ->
        List.iter
          (fun call ->
            let cm = Hashtbl.find t.g.Vdg.call_meta call in
            match cm.Vdg.cm_result with
            | Some res -> flow_out t res pair
            | None -> ())
          (callers t fname)
      | _ -> ()
    end
  end

(* ---- call-edge discovery (CI's call wiring, minus store threading) ---- *)

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
    match cm.Vdg.cm_result, meta.Vdg.fm_ret_value with
    | Some res, Some rv when t.active.(res) ->
      request t rv;
      Ptpair.Set.iter (fun p -> flow_out t res p) t.pts.(rv)
    | _ -> ()
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
    (* no store identity: the global store already carries everything *)
    (match cm.Vdg.cm_result with
    | Some res when t.active.(res) -> deliver_extern_result t cm res summary
    | _ -> ());
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

and handle_function_value t call via (pair : Ptpair.t) =
  match pair.Ptpair.referent.Apath.proot with
  | Some { Apath.bkind = Apath.Bfun name; _ } ->
    if Hashtbl.mem t.g.Vdg.funs name then
      add_defined_callee t call
        { ce_name = name; ce_argmap = Option.map snd via }
    else if via = None then add_extern_callee t call name
  | _ -> ()

(* ---- transfer functions ------------------------------------------------------ *)

(* Lookup matching: [rl] is a location the lookup may dereference, [sp]
   a store pair.  When rl is a prefix of the stored location, the
   residual accessor chain (the still-open parentheses) becomes the
   result's offset. *)
let match_store t nid rl (sp : Ptpair.t) =
  if Apath.dom rl sp.Ptpair.path then
    match Apath.subtract t.g.Vdg.tbl sp.Ptpair.path rl with
    | Some off -> flow_out t nid (Ptpair.make off sp.Ptpair.referent)
    | None ->
      flow_out t nid
        (Ptpair.make (Apath.empty_offset t.g.Vdg.tbl) sp.Ptpair.referent)

let flow_in t (nid : Vdg.node_id) (idx : int) (pair : Ptpair.t) =
  t.flow_in_count <- t.flow_in_count + 1;
  Budget.tick_transfer t.budget;
  let n = Vdg.node t.g nid in
  let tbl = t.g.Vdg.tbl in
  let input k = List.nth n.Vdg.ninputs k in
  match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nbase _ | Vdg.Nundef -> ()
  | Vdg.Nalloc _ -> ()
  | Vdg.Nlookup ->
    (* idx 0: a location arrived — match it against the global store.
       idx 1: a global-store pair arrived — match it against the
       locations (the store node input is never used). *)
    (match idx with
    | 0 ->
      let rl = pair.Ptpair.referent in
      if Apath.is_location rl then
        Ptpair.Set.iter (fun sp -> match_store t nid rl sp) t.gstore
    | 1 ->
      Ptpair.Set.iter
        (fun (lp : Ptpair.t) ->
          let rl = lp.Ptpair.referent in
          if Apath.is_location rl then match_store t nid rl pair)
        t.pts.(input 0)
    | _ -> ())
  | Vdg.Nupdate ->
    (* location × value product into the global store; never a kill,
       never a store pass-through (there is no store input flow) *)
    (match idx with
    | 0 ->
      let rl = pair.Ptpair.referent in
      if Apath.is_location rl then
        Ptpair.Set.iter
          (fun (vp : Ptpair.t) ->
            if Apath.is_offset vp.Ptpair.path then
              add_store t
                (Ptpair.make (Apath.append tbl rl vp.Ptpair.path) vp.Ptpair.referent))
          t.pts.(input 2)
    | 2 ->
      if Apath.is_offset pair.Ptpair.path then
        Ptpair.Set.iter
          (fun (lp : Ptpair.t) ->
            let rl = lp.Ptpair.referent in
            if Apath.is_location rl then
              add_store t
                (Ptpair.make (Apath.append tbl rl pair.Ptpair.path) pair.Ptpair.referent))
          t.pts.(input 0)
    | _ -> ())
  | Vdg.Nfield_addr acc ->
    (* open parenthesis: push the accessor onto the referent *)
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
    (* flow-insensitive: the member write never replaces anything *)
    let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
    (match idx with
    | 0 -> flow_out t nid pair
    | 1 ->
      if Apath.is_offset pair.Ptpair.path then
        flow_out t nid
          (Ptpair.make (Apath.append tbl acc_path pair.Ptpair.path) pair.Ptpair.referent)
    | _ -> ())
  | Vdg.Ngamma -> flow_out t nid pair
  | Vdg.Nprimop Vdg.Ptr_arith -> if idx = 0 then flow_out t nid pair
  | Vdg.Nprimop (Vdg.Scalar_op _) -> ()
  | Vdg.Nformal _ -> flow_out t nid pair
  | Vdg.Nformal_store _ | Vdg.Nret_store _ -> ()
  | Vdg.Nret_value _ -> flow_out t nid pair
  | Vdg.Ncall ->
    let cm = Hashtbl.find t.g.Vdg.call_meta nid in
    (match idx with
    | 0 -> handle_function_value t nid None pair
    | 1 -> ()  (* store input: collapsed into the global store *)
    | k ->
      let arg_idx = k - 2 in
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
  | Vdg.Ncall_result _ | Vdg.Ncall_store _ -> ()

(* ---- activation hooks -------------------------------------------------------- *)

let request_inputs t (n : Vdg.node) k =
  List.iteri
    (fun idx input -> if idx < k then request t input)
    n.Vdg.ninputs

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

let on_activate t nid =
  Budget.tick_transfer t.budget;
  let n = Vdg.node t.g nid in
  let tbl = t.g.Vdg.tbl in
  (match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nprimop (Vdg.Scalar_op _) | Vdg.Nundef -> ()
  | Vdg.Nbase b | Vdg.Nalloc b ->
    flow_out t nid (Ptpair.make (Apath.empty_offset tbl) (Apath.of_base tbl b))
  | Vdg.Nlookup ->
    (* demand the location slice and the whole global store; replay
       store pairs already present (later arrivals notify directly) *)
    request_inputs t n 1;
    ensure_store t;
    t.active_lookups <- nid :: t.active_lookups;
    Ptpair.Set.iter (fun p -> enqueue t nid 1 p) t.gstore
  | Vdg.Nupdate ->
    (* location and value inputs; the store input carries nothing here *)
    (match n.Vdg.ninputs with
    | loc :: _ :: value :: _ ->
      request t loc;
      request t value
    | _ -> ())
  | Vdg.Nfield_addr _ | Vdg.Noffset_read _ | Vdg.Nprimop Vdg.Ptr_arith ->
    request_inputs t n 1
  | Vdg.Noffset_write _ -> request_inputs t n 2
  | Vdg.Ngamma -> request_inputs t n max_int
  | Vdg.Nformal (f, i) ->
    request_inputs t n max_int;  (* root wiring (argv etc.) *)
    ensure_caller_scan t;
    wire_formal t nid f i
  | Vdg.Nformal_store _ | Vdg.Nret_store _ | Vdg.Ncall_store _ -> ()
  | Vdg.Nret_value _ -> request_inputs t n max_int
  | Vdg.Ncall ->
    let cm = Hashtbl.find t.g.Vdg.call_meta nid in
    request t cm.Vdg.cm_fn
  | Vdg.Ncall_result call ->
    request t call;
    wire_call_result t nid call);
  (* re-deliver pairs already derived on active inputs *)
  List.iteri
    (fun idx input ->
      if t.active.(input) then
        Ptpair.Set.iter (fun p -> enqueue t nid idx p) t.pts.(input))
    n.Vdg.ninputs

(* ---- driver ------------------------------------------------------------------ *)

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

let solve_all t =
  (* store-typed outputs carry nothing at this tier — the global store
     stands for all of them; updates still run (they feed it) *)
  ensure_store t;
  Vdg.iter_nodes t.g (fun n ->
      match n.Vdg.nkind, n.Vdg.ntype with
      | Vdg.Nupdate, _ -> request t n.Vdg.nid
      | _, Vdg.Vstore -> ()
      | _ -> request t n.Vdg.nid);
  run t

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
