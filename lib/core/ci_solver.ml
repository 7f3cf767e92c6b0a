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

(* A solution: each node's pair set as its hash-consed version, the
   discovered call graph, and the solve's counters.  The worklist state
   lives in [state] below and is dropped at fixpoint. *)
type t = {
  g : Vdg.t;
  pts : Ptset.t array;  (* per node: Ptpair keys *)
  mutable flow_in_count : int;
  mutable flow_out_count : int;
  mutable pushes : int;
  mutable pops : int;
  mutable ptset_stats : Ptset.stats;  (* per-solve delta, set at fixpoint *)
  call_callees : (Vdg.node_id, callee_edge list ref) Hashtbl.t;
  (* each caller's call metadata, resolved once at registration *)
  fun_callers : (string, Vdg.call_meta list ref) Hashtbl.t;
  ext_callees : (Vdg.node_id, string list ref) Hashtbl.t;
}

let graph t = t.g
let pairs t nid = t.pts.(nid)
let flow_in_count t = t.flow_in_count
let flow_out_count t = t.flow_out_count
let worklist_pushes t = t.pushes
let worklist_pops t = t.pops
let ptset_stats t = t.ptset_stats

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

(* ---- solver state -------------------------------------------------------------- *)

(* A slot is one (consumer, input index) edge of the graph; node [n]'s
   inputs are slots [first_slot.(n)] to [first_slot.(n + 1) - 1].  A slot
   is queued at most once; when popped it handles only the pairs its
   producer gained since the version it last processed ([seen]). *)
type state = {
  t : t;
  tbl : Apath.table;
  strong_updates : bool;
  budget : Budget.t;
  first_slot : int array;
  slot_node : int array;  (* slot -> consumer *)
  slot_src : int array;  (* slot -> producer *)
  seen : Ptset.t array;
  queued : Bytes.t;
  worklist : int Workbag.t;
  mutable buf : int array;  (* keys derived by the transfer in progress *)
  mutable nbuf : int;
}

let push st slot =
  if Bytes.unsafe_get st.queued slot = '\000' then begin
    Bytes.unsafe_set st.queued slot '\001';
    Workbag.add st.worklist slot
  end

let path st k = Ptpair.path_of_key st.tbl k
let referent st k = Ptpair.referent_of_key st.tbl k

(* ---- flow-out: grow an output, notify consumers -------------------------------- *)

(* [ci_flow_out] counts logical per-pair meets: a whole-set meet counts
   the pairs it carries, so the figure matches a solver that meets one
   pair at a time. *)
let rec grow st nid v =
  let t = st.t in
  let old = t.pts.(nid) in
  t.pts.(nid) <- v;
  List.iter (fun (c, i) -> push st (st.first_slot.(c) + i)) (Vdg.consumers t.g nid);
  (* return values/stores flow to every discovered call site *)
  match (Vdg.node t.g nid).Vdg.nkind with
  | Vdg.Nret_value fname ->
    let n = Ptset.cardinal v - Ptset.cardinal old in
    List.iter
      (fun cm ->
        match cm.Vdg.cm_result with Some res -> flow_set st res v n | None -> ())
      (caller_metas t fname)
  | Vdg.Nret_store fname ->
    let n = Ptset.cardinal v - Ptset.cardinal old in
    List.iter (fun cm -> flow_set st cm.Vdg.cm_cstore v n) (caller_metas t fname)
  | _ -> ()

(* meet the set [s] into [out], counted as [n] per-pair meets *)
and flow_set st out s n =
  st.t.flow_out_count <- st.t.flow_out_count + n;
  Budget.tick_meets st.budget n;
  let cur = st.t.pts.(out) in
  let v = Ptset.union cur s in
  if not (Ptset.equal v cur) then grow st out v

let flow_all st out s = flow_set st out s (Ptset.cardinal s)
let flow_key st out k = flow_set st out (Ptset.singleton k) 1

(* derived pairs are collected per transfer and met in one batch *)
let emit st k =
  if st.nbuf = Array.length st.buf then begin
    let grown = Array.make (2 * st.nbuf) 0 in
    Array.blit st.buf 0 grown 0 st.nbuf;
    st.buf <- grown
  end;
  Array.unsafe_set st.buf st.nbuf k;
  st.nbuf <- st.nbuf + 1

let commit st out =
  let n = st.nbuf in
  if n > 0 then begin
    st.nbuf <- 0;
    st.t.flow_out_count <- st.t.flow_out_count + n;
    Budget.tick_meets st.budget n;
    let cur = st.t.pts.(out) in
    let v = Ptset.add_many cur st.buf n in
    if not (Ptset.equal v cur) then grow st out v
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

(* the call site's facts flow into the callee: actuals to formals, the
   store to the formal store *)
let inject st (cm : Vdg.call_meta) argmap (meta : Vdg.fun_meta) =
  let pts = st.t.pts in
  Array.iteri
    (fun formal_idx formal_out ->
      match actual_for cm argmap formal_idx with
      | Some actual -> flow_all st formal_out pts.(actual)
      | None -> ())
    meta.Vdg.fm_formals;
  flow_all st meta.Vdg.fm_formal_store pts.(cm.Vdg.cm_store)

let add_defined_callee st call edge =
  let t = st.t in
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
    ignore (add_caller t name cm);
    inject st cm edge.ce_argmap meta;
    (match cm.Vdg.cm_result, meta.Vdg.fm_ret_value with
    | Some res, Some rv -> flow_all st res t.pts.(rv)
    | _ -> ());
    flow_all st cm.Vdg.cm_cstore t.pts.(meta.Vdg.fm_ret_store)
  end

let rec add_extern_callee st call name =
  let t = st.t in
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
    flow_all st cm.Vdg.cm_cstore t.pts.(cm.Vdg.cm_store);
    (* result summary *)
    (match cm.Vdg.cm_result, summary.Extern_summary.sum_returns with
    | Some res, Extern_summary.Ret_arg k when k < Array.length cm.Vdg.cm_args ->
      flow_all st res t.pts.(cm.Vdg.cm_args.(k))
    | Some res, Extern_summary.Ret_external ext ->
      let base = Apath.mk_base st.tbl (Apath.Bext ext) ~singular:false in
      flow_key st res (Ptpair.pack (Apath.empty_offset st.tbl) (Apath.of_base st.tbl base))
    | _ -> ());
    (* higher-order arguments: existing function values on those arguments *)
    List.iter
      (fun (arg_idx, formal_map) ->
        if arg_idx < Array.length cm.Vdg.cm_args then
          Ptset.iter
            (fun k -> handle_function_value st call (Some (arg_idx, formal_map)) (referent st k))
            t.pts.(cm.Vdg.cm_args.(arg_idx)))
      summary.Extern_summary.sum_calls
  end

(* a function value arrived at a call: either on the fn input (via = None)
   or on a higher-order summary argument (via = Some (arg_idx, map)) *)
and handle_function_value st call via (r : Apath.t) =
  match r.Apath.proot with
  | Some { Apath.bkind = Apath.Bfun name; _ } -> (
    match Hashtbl.find_opt st.t.g.Vdg.funs name with
    | Some meta ->
      add_defined_callee st call { ce_meta = meta; ce_argmap = Option.map snd via }
    | None -> if via = None then add_extern_callee st call name)
  | _ -> ()

(* ---- transfer functions ------------------------------------------------------- *)

(* the referents of a location input's pairs that are locations, one per
   pair (duplicates kept: each pair is one logical meet source) *)
let locations st s =
  Ptset.fold
    (fun k acc ->
      let r = referent st k in
      if Apath.is_location r then r :: acc else acc)
    s []

(* lookup matching: the stored pair [sk] is read through location [rl] *)
let match_store st rl sk =
  let sp = path st sk in
  if Apath.dom rl sp then
    let off =
      match Apath.subtract st.tbl sp rl with
      | Some off -> off
      | None -> Apath.empty_offset st.tbl  (* rl covers sp via truncation *)
    in
    emit st (Ptpair.pack off (referent st sk))

(* Apply node [nid]'s transfer function for input [idx], whose producer
   grew from [seen] to [cur] ([nd] new pairs).  Identity-like inputs meet
   the producer's whole current set in one memoized union; the rest
   iterate only the new pairs. *)
let transfer st nid idx cur seen nd =
  let t = st.t in
  let tbl = st.tbl in
  let n = Vdg.node t.g nid in
  let input k = st.slot_src.(st.first_slot.(nid) + k) in
  let each_new f = Ptset.iter_diff f cur seen in
  match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nbase _ | Vdg.Nundef -> ()
  | Vdg.Nalloc _ -> ()  (* size input carries no pairs of interest *)
  | Vdg.Nlookup ->
    (* inputs: [loc; store] *)
    (match idx with
    | 0 ->
      let store = t.pts.(input 1) in
      each_new (fun lk ->
          let rl = referent st lk in
          if Apath.is_location rl then Ptset.iter (fun sk -> match_store st rl sk) store);
      commit st nid
    | 1 ->
      (match locations st t.pts.(input 0) with
      | [] -> ()
      | locs ->
        each_new (fun sk -> List.iter (fun rl -> match_store st rl sk) locs);
        commit st nid)
    | _ -> ())
  | Vdg.Nupdate ->
    (* inputs: [loc; store; value]; output = new store.  A location that
       cannot be strongly updated kills nothing, so the whole store
       passes through it. *)
    let weak rl = not (st.strong_updates && Apath.strongly_updateable rl) in
    (match idx with
    | 0 ->
      let store = t.pts.(input 1) and value = t.pts.(input 2) in
      each_new (fun lk ->
          let rl = referent st lk in
          if Apath.is_location rl then begin
            Ptset.iter
              (fun vk ->
                let vpath = path st vk in
                if Apath.is_offset vpath then
                  emit st (Ptpair.pack (Apath.append tbl rl vpath) (referent st vk)))
              value;
            if weak rl then flow_all st nid store
            else
              Ptset.iter
                (fun sk -> if not (Apath.strong_dom rl (path st sk)) then emit st sk)
                store
          end);
      commit st nid
    | 1 ->
      (* new store pairs: propagated if at least one location does not
         strongly update them; blocked while no location pair has arrived *)
      (match locations st t.pts.(input 0) with
      | [] -> ()
      | locs when List.exists weak locs -> flow_set st nid cur nd
      | locs ->
        each_new (fun sk ->
            let sp = path st sk in
            if List.exists (fun rl -> not (Apath.strong_dom rl sp)) locs then emit st sk);
        commit st nid)
    | 2 ->
      (match locations st t.pts.(input 0) with
      | [] -> ()
      | locs ->
        each_new (fun vk ->
            let vpath = path st vk in
            if Apath.is_offset vpath then begin
              let r = referent st vk in
              List.iter (fun rl -> emit st (Ptpair.pack (Apath.append tbl rl vpath) r)) locs
            end);
        commit st nid)
    | _ -> ())
  | Vdg.Nfield_addr acc ->
    (* address arithmetic: referent path is extended by the accessor *)
    if idx = 0 then begin
      each_new (fun k ->
          let r = referent st k in
          if Apath.is_location r then emit st (Ptpair.pack (path st k) (Apath.extend tbl r acc)));
      commit st nid
    end
  | Vdg.Noffset_read acc ->
    if idx = 0 then begin
      let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
      each_new (fun k ->
          let p = path st k in
          if Apath.dom acc_path p then
            let off =
              match Apath.subtract tbl p acc_path with
              | Some off -> off
              | None -> Apath.empty_offset tbl
            in
            emit st (Ptpair.pack off (referent st k)));
      commit st nid
    end
  | Vdg.Noffset_write acc ->
    (* inputs: [agg; value] — a value-level member update *)
    (match idx with
    | 0 ->
      (* a member write definitely replaces that member of the value,
         except through an array accessor *)
      if st.strong_updates && acc <> Apath.Index then begin
        let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
        each_new (fun k -> if not (Apath.dom acc_path (path st k)) then emit st k);
        commit st nid
      end
      else flow_set st nid cur nd
    | 1 ->
      let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
      each_new (fun k ->
          let p = path st k in
          if Apath.is_offset p then
            emit st (Ptpair.pack (Apath.append tbl acc_path p) (referent st k)));
      commit st nid
    | _ -> ())
  | Vdg.Ngamma -> flow_set st nid cur nd
  | Vdg.Nprimop Vdg.Ptr_arith -> if idx = 0 then flow_set st nid cur nd
  | Vdg.Nprimop (Vdg.Scalar_op _) -> ()
  | Vdg.Nformal _ | Vdg.Nformal_store _ ->
    (* inputs only exist for root wiring; interprocedural pairs arrive via
       direct meets from call sites *)
    flow_set st nid cur nd
  | Vdg.Nret_value _ | Vdg.Nret_store _ -> flow_set st nid cur nd
  | Vdg.Ncall ->
    (match idx with
    | 0 -> each_new (fun k -> handle_function_value st nid None (referent st k))
    | 1 ->
      (* store input: forward to defined callees' formal stores and along
         extern identity summaries *)
      (match Hashtbl.find_opt t.call_callees nid with
      | Some cell ->
        List.iter (fun edge -> flow_set st edge.ce_meta.Vdg.fm_formal_store cur nd) !cell
      | None -> ());
      (match Hashtbl.find_opt t.ext_callees nid with
      | Some cell ->
        let cm = Hashtbl.find t.g.Vdg.call_meta nid in
        List.iter (fun _name -> flow_set st cm.Vdg.cm_cstore cur nd) !cell
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
                if maps_here then flow_set st formal_out cur nd)
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
              flow_set st res cur nd
            | _ -> ());
            List.iter
              (fun (ho_idx, formal_map) ->
                if ho_idx = arg_idx then
                  each_new (fun k ->
                      handle_function_value st nid (Some (ho_idx, formal_map))
                        (referent st k)))
              summary.Extern_summary.sum_calls)
          !cell
      | None -> ()))
  | Vdg.Ncall_result _ | Vdg.Ncall_store _ ->
    (* written directly by return propagation; the anchor edge carries
       nothing *)
    ()

(* ---- driver ---------------------------------------------------------------------- *)

let mk_state (config : config) budget (g : Vdg.t) =
  let n = Vdg.n_nodes g in
  let first_slot = Array.make (n + 1) 0 in
  for nid = 0 to n - 1 do
    first_slot.(nid + 1) <- first_slot.(nid) + List.length (Vdg.node g nid).Vdg.ninputs
  done;
  let nslots = first_slot.(n) in
  let slot_node = Array.make nslots 0 and slot_src = Array.make nslots 0 in
  Vdg.iter_nodes g (fun nd ->
      List.iteri
        (fun i src ->
          let s = first_slot.(nd.Vdg.nid) + i in
          slot_node.(s) <- nd.Vdg.nid;
          slot_src.(s) <- src)
        nd.Vdg.ninputs);
  let before = Ptset.stats () in
  let t =
    {
      g;
      pts = Array.make n Ptset.empty;
      flow_in_count = 0;
      flow_out_count = 0;
      pushes = 0;
      pops = 0;
      ptset_stats = Ptset.delta ~before ~after:before;
      call_callees = Hashtbl.create 64;
      fun_callers = Hashtbl.create 64;
      ext_callees = Hashtbl.create 64;
    }
  in
  {
    t;
    tbl = g.Vdg.tbl;
    strong_updates = config.strong_updates;
    budget = (match budget with Some b -> b | None -> Budget.unlimited ());
    first_slot;
    slot_node;
    slot_src;
    seen = Array.make nslots Ptset.empty;
    queued = Bytes.make nslots '\000';
    worklist = Workbag.create ~dummy:(-1) config.schedule;
    buf = Array.make 64 0;
    nbuf = 0;
  }

(* [preset nid]: the node's set is installed already, seed included *)
let seed ?(preset = fun _ -> false) st =
  let tbl = st.tbl in
  Vdg.iter_nodes st.t.g (fun n ->
      match n.Vdg.nkind with
      | (Vdg.Nbase b | Vdg.Nalloc b) when not (preset n.Vdg.nid) ->
        flow_key st n.Vdg.nid (Ptpair.pack (Apath.empty_offset tbl) (Apath.of_base tbl b))
      | _ -> ());
  (* seed the initial store with argv's contents: argv[i] points to
     external string storage *)
  if st.t.g.Vdg.entry_store >= 0 then begin
    let argv_arr = Apath.mk_base tbl (Apath.Bext "argv") ~singular:false in
    let argv_str = Apath.mk_base tbl (Apath.Bext "argv_strings") ~singular:false in
    let slot = Apath.extend tbl (Apath.of_base tbl argv_arr) Apath.Index in
    flow_key st st.t.g.Vdg.entry_store (Ptpair.pack slot (Apath.of_base tbl argv_str))
  end

(* Pop slots until the worklist is empty; [ci_flow_in] counts each
   popped slot's new pairs, so at fixpoint it is
   Σ_o |pairs o| × |consumers o|. *)
let run st =
  let t = st.t in
  while not (Workbag.is_empty st.worklist) do
    let slot = Workbag.pop st.worklist in
    Bytes.unsafe_set st.queued slot '\000';
    let cur = t.pts.(st.slot_src.(slot)) in
    let seen = st.seen.(slot) in
    st.seen.(slot) <- cur;
    let nd = Ptset.cardinal cur - Ptset.cardinal seen in
    if nd > 0 then begin
      t.flow_in_count <- t.flow_in_count + nd;
      Budget.tick_transfers st.budget nd;
      let c = st.slot_node.(slot) in
      transfer st c (slot - st.first_slot.(c)) cur seen nd
    end
  done;
  t.pushes <- Workbag.pushed st.worklist;
  t.pops <- Workbag.popped st.worklist

let solve ?(config = default_config) ?budget (g : Vdg.t) : t =
  let before = Ptset.stats () in
  let st = mk_state config budget g in
  seed st;
  run st;
  st.t.ptset_stats <- Ptset.delta ~before ~after:(Ptset.stats ());
  st.t

(* ---- warm (region-restricted) solve ------------------------------------------ *)

(* Re-solve only a region of the graph, with everything outside it frozen
   at a previous solution.  Frozen nodes get their sets preset without
   notifying consumers (the old fixpoint is already closed under the
   transfer functions inside the frozen region); frozen call sites get
   their discovered call edges preset without repropagation.  Work enters
   the region in three ways:

   - the normal seeding of the region's base/alloc nodes;
   - frozen->region consumer edges (root wiring): such a slot starts
     with an empty [seen], so the frozen set enters as one delta;
   - frozen caller -> region callee call edges: the caller's preset
     actuals/store are met into the callee's formal nodes, mirroring
     [add_defined_callee]'s repropagation.

   Region -> frozen flow happens through the ordinary mechanisms
   (discovery, return propagation); a frozen node whose set would have to
   change marks the splice invalid — the caller re-runs with the node's
   procedure dirtied.  Shrinkage cannot be observed here (sets only
   grow); callers must compare interface summaries against the previous
   solution to detect it. *)

let solve_warm ?(config = default_config) ?budget (g : Vdg.t)
    ~(frozen : bool array)
    ~(preset : (Vdg.node_id * Ptset.t) list)
    ~(calls : (Vdg.node_id * (string * int array option) list) list)
    ~(ext_calls : (Vdg.node_id * string list) list) : t * Vdg.node_id list =
  let before = Ptset.stats () in
  let st = mk_state config budget g in
  let t = st.t in
  (* install frozen facts silently *)
  List.iter (fun (nid, s) -> t.pts.(nid) <- s) preset;
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
  (* slots fed by frozen producers: frozen consumers have already seen
     the preset, region consumers take it as their first delta *)
  Array.iteri
    (fun slot src ->
      if frozen.(src) then
        if frozen.(st.slot_node.(slot)) then st.seen.(slot) <- t.pts.(src)
        else if not (Ptset.is_empty t.pts.(src)) then push st slot)
    st.slot_src;
  (* frozen caller -> region callee injection *)
  List.iter
    (fun (call, edges) ->
      let cm = Hashtbl.find g.Vdg.call_meta call in
      List.iter
        (fun (name, argmap) ->
          match Hashtbl.find_opt g.Vdg.funs name with
          | Some meta when not frozen.(meta.Vdg.fm_formal_store) -> inject st cm argmap meta
          | _ -> ())
        edges)
    calls;
  (* ordinary seeding of the region: a frozen base or alloc node's
     preset is the translation of its old set, which holds its seed *)
  seed ~preset:(fun nid -> frozen.(nid)) st;
  run st;
  t.ptset_stats <- Ptset.delta ~before ~after:(Ptset.stats ());
  let violations =
    List.filter_map
      (fun (nid, s) -> if Ptset.equal t.pts.(nid) s then None else Some nid)
      preset
  in
  (t, List.sort_uniq Int.compare violations)

let referenced_locations t nid =
  let n = Vdg.node t.g nid in
  match n.Vdg.nkind, n.Vdg.ninputs with
  | (Vdg.Nlookup | Vdg.Nupdate), loc :: _ ->
    let tbl = t.g.Vdg.tbl in
    let seen = Hashtbl.create 8 in
    Ptset.fold
      (fun k acc ->
        let r = Ptpair.referent_of_key tbl k in
        if Apath.is_location r && not (Hashtbl.mem seen r.Apath.pid) then begin
          Hashtbl.replace seen r.Apath.pid ();
          r :: acc
        end
        else acc)
      t.pts.(loc) []
    (* canonical order, not set-iteration order: key order follows pid
       interning order, which depends on how the solution was computed,
       so order by print form — the same canonicalization the solution
       digest uses *)
    |> List.map (fun p -> (Apath.to_string p, p))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
  | _ -> []
