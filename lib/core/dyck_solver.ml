(* Dyck-reachability alias analysis: field-sensitive, flow-insensitive.

   One exhaustive saturation over the VDG with the store dimension
   collapsed.  There is no store threading: one global pair set [gstore]
   stands for every store value in the program.  Updates write into it
   (the location × value product, never killed), lookups read from it
   (accessor-chain matching via dom/subtract — the close-parenthesis
   move of the Dyck framing), and store-typed nodes (formal stores,
   return stores, call stores, the update outputs themselves) carry
   nothing.

   Soundness ordering, relied on by the ladder and checked node-by-node
   in test_dyck.ml: every CI-derivable pair is Dyck-derivable.  Value
   flow here is CI's value flow minus the Noffset_write kill; store
   flow is coarser by construction — a pair a threaded CI store carries
   either is the argv entry seed (seeded into gstore) or was generated
   at some update from that update's (smaller) CI input sets. *)

type callee_edge = {
  ce_name : string;
  ce_argmap : int array option;  (* None = identity *)
}

type t = {
  g : Vdg.t;
  budget : Budget.t;
  pts : Ptset.t array;  (* per node: Ptpair keys *)
  mutable gstore : Ptset.t;
  lookups : Vdg.node_id list;  (* every lookup: re-queued on gstore growth *)
  (* (consumer, input index, pair key).  A push only follows the first
     insertion of a pair at its producer (or into gstore), so no item is
     ever queued twice (test_ptset checks the exact count). *)
  worklist : (Vdg.node_id * int * int) Workbag.t;
  mutable flow_in_count : int;
  mutable flow_out_count : int;
  mutable ptset_stats : Ptset.stats option;  (* per-solve delta *)
  call_callees : (Vdg.node_id, callee_edge list ref) Hashtbl.t;
  fun_callers : (string, Vdg.node_id list ref) Hashtbl.t;
  ext_callees : (Vdg.node_id, string list ref) Hashtbl.t;
}

let graph t = t.g
let pairs t nid = t.pts.(nid)
let store_pairs t = Ptpair.Set.elements t.g.Vdg.tbl t.gstore
let flow_in_count t = t.flow_in_count
let flow_out_count t = t.flow_out_count
let worklist_pushes t = Workbag.pushed t.worklist
let worklist_pops t = Workbag.popped t.worklist
let ptset_stats t = Option.get t.ptset_stats

let callers t fname =
  match Hashtbl.find_opt t.fun_callers fname with Some cell -> !cell | None -> []

(* the list cell under [key], created empty on first use *)
let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = ref [] in
    Hashtbl.add tbl key c;
    c

let path t k = Ptpair.path_of_key t.g.Vdg.tbl k
let referent t k = Ptpair.referent_of_key t.g.Vdg.tbl k

(* A pair entered the global store: every lookup re-matches. *)
let add_store t k =
  Budget.tick_meet t.budget;
  let v = Ptset.add t.gstore k in
  if not (Ptset.equal v t.gstore) then begin
    t.gstore <- v;
    List.iter (fun lkp -> Workbag.add t.worklist (lkp, 1, k)) t.lookups
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

let rec flow_out t output k =
  t.flow_out_count <- t.flow_out_count + 1;
  Budget.tick_meet t.budget;
  let cur = t.pts.(output) in
  let v = Ptset.add cur k in
  if not (Ptset.equal v cur) then begin
    t.pts.(output) <- v;
    List.iter
      (fun (consumer, idx) -> Workbag.add t.worklist (consumer, idx, k))
      (Vdg.consumers t.g output);
    match (Vdg.node t.g output).Vdg.nkind with
    | Vdg.Nret_value fname ->
      List.iter
        (fun call ->
          let cm = Hashtbl.find t.g.Vdg.call_meta call in
          match cm.Vdg.cm_result with
          | Some res -> flow_out t res k
          | None -> ())
        (callers t fname)
    | _ -> ()
  end

(* ---- call-edge discovery (CI's call wiring, minus store threading) ---- *)

and add_defined_callee t call edge =
  let edges = cell t.call_callees call in
  if not (List.exists (fun e -> e.ce_name = edge.ce_name && e.ce_argmap = edge.ce_argmap) !edges)
  then begin
    edges := edge :: !edges;
    let callers_cell = cell t.fun_callers edge.ce_name in
    if not (List.mem call !callers_cell) then callers_cell := call :: !callers_cell;
    let cm = Hashtbl.find t.g.Vdg.call_meta call in
    let meta = Hashtbl.find t.g.Vdg.funs edge.ce_name in
    Array.iteri
      (fun formal_idx formal_out ->
        match actual_for cm edge formal_idx with
        | Some actual -> Ptset.iter (fun k -> flow_out t formal_out k) t.pts.(actual)
        | None -> ())
      meta.Vdg.fm_formals;
    match cm.Vdg.cm_result, meta.Vdg.fm_ret_value with
    | Some res, Some rv -> Ptset.iter (fun k -> flow_out t res k) t.pts.(rv)
    | _ -> ()
  end

and add_extern_callee t call name =
  let names = cell t.ext_callees call in
  if not (List.mem name !names) then begin
    names := name :: !names;
    let cm = Hashtbl.find t.g.Vdg.call_meta call in
    let fs = Hashtbl.find_opt t.g.Vdg.externs name in
    let summary = Extern_summary.lookup name fs in
    (* no store identity: the global store already carries everything *)
    (match cm.Vdg.cm_result, summary.Extern_summary.sum_returns with
    | Some res, Extern_summary.Ret_arg k when k < Array.length cm.Vdg.cm_args ->
      Ptset.iter (fun key -> flow_out t res key) t.pts.(cm.Vdg.cm_args.(k))
    | Some res, Extern_summary.Ret_external ext ->
      let base = Apath.mk_base t.g.Vdg.tbl (Apath.Bext ext) ~singular:false in
      flow_out t res
        (Ptpair.pack (Apath.empty_offset t.g.Vdg.tbl) (Apath.of_base t.g.Vdg.tbl base))
    | _ -> ());
    List.iter
      (fun (arg_idx, formal_map) ->
        if arg_idx < Array.length cm.Vdg.cm_args then
          Ptset.iter
            (fun k -> handle_function_value t call (Some (arg_idx, formal_map)) k)
            t.pts.(cm.Vdg.cm_args.(arg_idx)))
      summary.Extern_summary.sum_calls
  end

(* [k] is the key of a pair whose referent may be a function value *)
and handle_function_value t call via k =
  match (referent t k).Apath.proot with
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
let match_store t nid rl sk =
  let sp = path t sk in
  if Apath.dom rl sp then
    match Apath.subtract t.g.Vdg.tbl sp rl with
    | Some off -> flow_out t nid (Ptpair.pack off (referent t sk))
    | None ->
      flow_out t nid (Ptpair.pack (Apath.empty_offset t.g.Vdg.tbl) (referent t sk))

let flow_in t (nid : Vdg.node_id) (idx : int) k =
  t.flow_in_count <- t.flow_in_count + 1;
  Budget.tick_transfer t.budget;
  let n = Vdg.node t.g nid in
  let tbl = t.g.Vdg.tbl in
  let input i = List.nth n.Vdg.ninputs i in
  match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nbase _ | Vdg.Nundef -> ()
  | Vdg.Nalloc _ -> ()
  | Vdg.Nlookup ->
    (* idx 0: a location arrived — match it against the global store.
       idx 1: a global-store pair arrived — match it against the
       locations (the store node input is never used). *)
    (match idx with
    | 0 ->
      let rl = referent t k in
      if Apath.is_location rl then Ptset.iter (fun sk -> match_store t nid rl sk) t.gstore
    | 1 ->
      Ptset.iter
        (fun lk ->
          let rl = referent t lk in
          if Apath.is_location rl then match_store t nid rl k)
        t.pts.(input 0)
    | _ -> ())
  | Vdg.Nupdate ->
    (* location × value product into the global store; never a kill,
       never a store pass-through (there is no store input flow) *)
    (match idx with
    | 0 ->
      let rl = referent t k in
      if Apath.is_location rl then
        Ptset.iter
          (fun vk ->
            let vpath = path t vk in
            if Apath.is_offset vpath then
              add_store t (Ptpair.pack (Apath.append tbl rl vpath) (referent t vk)))
          t.pts.(input 2)
    | 2 ->
      let vpath = path t k in
      if Apath.is_offset vpath then
        Ptset.iter
          (fun lk ->
            let rl = referent t lk in
            if Apath.is_location rl then
              add_store t (Ptpair.pack (Apath.append tbl rl vpath) (referent t k)))
          t.pts.(input 0)
    | _ -> ())
  | Vdg.Nfield_addr acc ->
    (* open parenthesis: push the accessor onto the referent *)
    let r = referent t k in
    if idx = 0 && Apath.is_location r then
      flow_out t nid (Ptpair.pack (path t k) (Apath.extend tbl r acc))
  | Vdg.Noffset_read acc ->
    if idx = 0 then begin
      let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
      let p = path t k in
      if Apath.dom acc_path p then
        match Apath.subtract tbl p acc_path with
        | Some off -> flow_out t nid (Ptpair.pack off (referent t k))
        | None -> flow_out t nid (Ptpair.pack (Apath.empty_offset tbl) (referent t k))
    end
  | Vdg.Noffset_write acc ->
    (* flow-insensitive: the member write never replaces anything *)
    let acc_path = Apath.extend tbl (Apath.empty_offset tbl) acc in
    (match idx with
    | 0 -> flow_out t nid k
    | 1 ->
      let p = path t k in
      if Apath.is_offset p then
        flow_out t nid (Ptpair.pack (Apath.append tbl acc_path p) (referent t k))
    | _ -> ())
  | Vdg.Ngamma -> flow_out t nid k
  | Vdg.Nprimop Vdg.Ptr_arith -> if idx = 0 then flow_out t nid k
  | Vdg.Nprimop (Vdg.Scalar_op _) -> ()
  | Vdg.Nformal _ -> flow_out t nid k
  | Vdg.Nformal_store _ | Vdg.Nret_store _ -> ()
  | Vdg.Nret_value _ -> flow_out t nid k
  | Vdg.Ncall ->
    let cm = Hashtbl.find t.g.Vdg.call_meta nid in
    (match idx with
    | 0 -> handle_function_value t nid None k
    | 1 -> ()  (* store input: collapsed into the global store *)
    | i ->
      let arg_idx = i - 2 in
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
                if maps_here then flow_out t formal_out k)
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
              flow_out t res k
            | _ -> ());
            List.iter
              (fun (ho_idx, formal_map) ->
                if ho_idx = arg_idx then
                  handle_function_value t nid (Some (ho_idx, formal_map)) k)
              summary.Extern_summary.sum_calls)
          !cell
      | None -> ()))
  | Vdg.Ncall_result _ | Vdg.Ncall_store _ -> ()

(* ---- driver ------------------------------------------------------------------ *)

(* Seed the argv relation CI keeps on the entry store, then the base
   and alloc addresses in node order. *)
let seed t =
  let tbl = t.g.Vdg.tbl in
  let argv_arr = Apath.mk_base tbl (Apath.Bext "argv") ~singular:false in
  let argv_str = Apath.mk_base tbl (Apath.Bext "argv_strings") ~singular:false in
  let slot = Apath.extend tbl (Apath.of_base tbl argv_arr) Apath.Index in
  add_store t (Ptpair.pack slot (Apath.of_base tbl argv_str));
  Vdg.iter_nodes t.g (fun n ->
      match n.Vdg.nkind with
      | Vdg.Nbase b | Vdg.Nalloc b ->
        flow_out t n.Vdg.nid (Ptpair.pack (Apath.empty_offset tbl) (Apath.of_base tbl b))
      | _ -> ())

let solve ?(config = Ci_solver.default_config) ?budget (g : Vdg.t) : t =
  let before = Ptset.stats () in
  let lookups = ref [] in
  Vdg.iter_nodes g (fun n ->
      if n.Vdg.nkind = Vdg.Nlookup then lookups := n.Vdg.nid :: !lookups);
  let t =
    {
      g;
      budget = (match budget with Some b -> b | None -> Budget.unlimited ());
      pts = Array.make (Vdg.n_nodes g) Ptset.empty;
      gstore = Ptset.empty;
      lookups = !lookups;
      worklist = Workbag.create ~dummy:(-1, -1, -1) config.Ci_solver.schedule;
      flow_in_count = 0;
      flow_out_count = 0;
      ptset_stats = None;
      call_callees = Hashtbl.create 64;
      fun_callers = Hashtbl.create 64;
      ext_callees = Hashtbl.create 64;
    }
  in
  seed t;
  while not (Workbag.is_empty t.worklist) do
    let nid, idx, k = Workbag.pop t.worklist in
    flow_in t nid idx k
  done;
  t.ptset_stats <- Some (Ptset.delta ~before ~after:(Ptset.stats ()));
  t

let referenced_locations t nid =
  let n = Vdg.node t.g nid in
  match n.Vdg.nkind, n.Vdg.ninputs with
  | (Vdg.Nlookup | Vdg.Nupdate), loc :: _ ->
    let seen = Hashtbl.create 8 in
    Ptset.fold
      (fun k acc ->
        let r = referent t k in
        if Apath.is_location r && not (Hashtbl.mem seen r.Apath.pid) then begin
          Hashtbl.replace seen r.Apath.pid ();
          r :: acc
        end
        else acc)
      t.pts.(loc) []
    (* canonical print-form order, as Ci_solver.referenced_locations *)
    |> List.map (fun p -> (Apath.to_string p, p))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
  | _ -> []
