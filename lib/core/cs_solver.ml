type config = {
  ci_pruning : bool;
  stale_skip : bool;
}

let default_config = { ci_pruning = true; stale_skip = true }

(* A solution.  Every (output, pair) entry owns a dense slot: [base.(o)]
   plus the pair's rank in CI's sorted key set at [o], which exists
   because CS ⊆ CI at every node.  An entry is present iff its antichain
   is non-empty; the present entries of an output are linked through
   [next] in first-arrival order, starting at [head].  The worklist
   state lives in [state] below and is dropped at fixpoint. *)
type t = {
  g : Vdg.t;
  ci : Ci_solver.t;
  actx : Assumption.ctx;
  base : int array;  (* output -> its first slot *)
  chains : Assumption.Antichain.t array;  (* slot -> members; [] = absent *)
  next : int array;  (* slot -> the output's next entry; -1 = last *)
  head : int array;  (* output -> its first entry; -1 = none *)
  mutable flow_in_count : int;
  mutable flow_out_count : int;
  mutable pushes : int;
  mutable pops : int;
  mutable stale_skips : int;
  mutable ptset_stats : Ptset.stats;  (* per-solve delta, set at fixpoint *)
}

let flow_in_count t = t.flow_in_count
let flow_out_count t = t.flow_out_count
let worklist_pushes t = t.pushes
let worklist_pops t = t.pops
let worklist_stale_skips t = t.stale_skips
let ptset_stats t = t.ptset_stats
let assumption_ctx t = t.actx

(* the slot of key [k] at output [o], or -1 if CI lacks the pair there *)
let find_slot t o k =
  let keys = (Ci_solver.pairs t.ci o).Ptset.elems in
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = Array.unsafe_get keys mid in
      if x = k then t.base.(o) + mid else if x < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length keys)

let pair_at t o slot =
  Ptpair.of_key t.g.Vdg.tbl (Ci_solver.pairs t.ci o).Ptset.elems.(slot - t.base.(o))

(* The actual-argument output at a call corresponding to a callee formal
   output, under the given argmap. *)
let actual_of_formal t (cm : Vdg.call_meta) argmap formal_node =
  match (Vdg.node t.g formal_node).Vdg.nkind with
  | Vdg.Nformal_store _ -> Some cm.Vdg.cm_store
  | Vdg.Nformal (_, i) ->
    let k =
      match argmap with None -> i | Some map -> if i < Array.length map then map.(i) else -1
    in
    if k >= 0 && k < Array.length cm.Vdg.cm_args then Some cm.Vdg.cm_args.(k) else None
  | _ -> None

(* each assumed formal pair's satisfier slot on the matching actual, in
   [Assumption.elements] order; -1 where the edge has no matching actual
   or CI lacks the pair there *)
let satisfiers t cm argmap aset =
  Array.of_list
    (List.map
       (fun aid ->
         let formal_node, fpair = Assumption.describe t.actx aid in
         match actual_of_formal t cm argmap formal_node with
         | Some actual -> find_slot t actual (Ptpair.key fpair)
         | None -> -1)
       (Assumption.elements aset))

(* ---- solve state ------------------------------------------------------------------ *)

(* One return-propagation instance: a pair that arrived at a callee's
   return node under one assumption set, translated back to one call
   site along one of its callee edges.  [sats] are the assumptions'
   satisfier slots on that edge ([satisfiers]); [vsum] is the sum of
   their versions at the last visit (-1: never visited).  Versions only grow, so an equal sum
   means every satisfier chain is unchanged and the Cartesian product
   was already flowed.  The instances of one call's edges naming the
   procedure run together, as one group. *)
type inst = {
  i_target : Vdg.node_id;
  i_pair : Ptpair.t;
  sats : int array;
  mutable vsum : int;
}

(* a call site a return node flows back to: the result or store output
   fed, and the argmaps of the call's edges naming the procedure *)
type site = {
  s_call : Vdg.call_meta;
  s_target : Vdg.node_id;
  s_argmaps : int array option array;
}

type state = {
  t : t;
  tbl : Apath.table;
  config : config;
  budget : Budget.t;
  tail : int array;  (* output -> its last entry; -1 = none *)
  ver : int array;  (* slot -> successful inserts so far *)
  (* slot -> the instance groups whose product reads that chain, newest
     first; fired on successful inserts so re-propagation work is
     proportional to chain changes, not to call input churn *)
  subs : inst array list array;
  (* the CI call graph, fixed before the solve starts *)
  callees : (Vdg.fun_meta * int array option) array array;  (* call -> edges *)
  sites : site array array;  (* return node -> its call sites *)
  ci_locs : Apath.t list array;  (* lookup/update node -> CI's locations *)
  (* each item remembers the slot whose antichain gained [aset]; if that
     member has been evicted by a weaker set before the item is popped,
     the item is stale and skipped (the evictor pushed subsuming items
     of its own) *)
  worklist : (int * Vdg.node_id * int * Ptpair.t * Assumption.t) Queue.t;
}

(* [f pair aset] over the entries of [output] present on entry; each
   chain is read when its entry is reached *)
let iter_qualified st output f =
  let last = st.tail.(output) in
  let rec go slot =
    let pair = pair_at st.t output slot in
    List.iter (fun aset -> f pair aset) st.t.chains.(slot);
    if slot <> last then go st.t.next.(slot)
  in
  if last >= 0 then go st.t.head.(output)

(* ---- flow-out -------------------------------------------------------------------- *)

let slot_of st output pair =
  let slot = find_slot st.t output (Ptpair.key pair) in
  if slot < 0 then
    invalid_arg
      (Printf.sprintf "Cs_solver: pair %s at node %d is outside the CI solution"
         (Ptpair.to_string pair) output);
  slot

let rec flow_out st output pair aset = flow_out_at st output (slot_of st output pair) pair aset

(* a fact entering a procedure at formal output [fnode] holds there
   under the self-assumption that it holds on entry *)
and flow_formal st fnode pair =
  let slot = slot_of st fnode pair in
  flow_out_at st fnode slot pair (Assumption.singleton st.t.actx ~key:slot fnode pair)

and flow_out_at st output slot pair aset =
  let t = st.t in
  t.flow_out_count <- t.flow_out_count + 1;
  Budget.tick_meet st.budget;
  let chain = t.chains.(slot) in
  match Assumption.Antichain.insert chain aset with
  | None -> ()
  | Some grown ->
    (* first arrival: link the entry at the output's tail *)
    if chain = [] then begin
      (match st.tail.(output) with
      | -1 -> t.head.(output) <- slot
      | last -> t.next.(last) <- slot);
      st.tail.(output) <- slot
    end;
    t.chains.(slot) <- grown;
    st.ver.(slot) <- st.ver.(slot) + 1;
    List.iter
      (fun (consumer, idx) ->
        Queue.add (slot, consumer, idx, pair, aset) st.worklist;
        t.pushes <- t.pushes + 1)
      (Vdg.consumers t.g output);
    (* a (slot, set) is inserted at most once (members are only replaced
       by subsets), so each instance is created here, exactly once *)
    Array.iter
      (fun site ->
        let inst argmap =
          let sats = satisfiers t site.s_call argmap aset in
          { i_target = site.s_target; i_pair = pair; sats; vsum = -1 }
        in
        run st (Array.map inst site.s_argmaps))
      st.sites.(output);
    (* this chain grew: re-run every return propagation that reads it
       (the version memo inside makes duplicate firings cheap) *)
    List.iter (run st) st.subs.(slot)

(* ---- return propagation (Figure 5, propagate-return) ------------------------------- *)

and run st group =
  Array.iter
    (fun i ->
      if i.vsum < 0 then
        (* first visit: subscribe to every satisfier chain it reads, so
           future inserts there re-run it *)
        Array.iter (fun s -> if s >= 0 then st.subs.(s) <- group :: st.subs.(s)) i.sats;
      let vsum = Array.fold_left (fun acc s -> if s < 0 then acc else acc + st.ver.(s)) 0 i.sats in
      if vsum <> i.vsum then begin
        i.vsum <- vsum;
        (* For each assumption, the set of caller assumption-sets that
           satisfy it; the Cartesian product over assumptions gives all
           sufficient caller contexts. *)
        let satisfier_sets =
          Array.fold_right (fun s acc -> (if s < 0 then [] else st.t.chains.(s)) :: acc) i.sats []
        in
        if List.for_all (fun s -> s <> []) satisfier_sets then begin
          (* hash-consing makes duplicate partial products visible as
             equal ids; dropping them (first occurrence kept) prunes the
             Cartesian product without changing the flowed sets *)
          let dedup = function
            | ([] | [ _ ]) as sets -> sets
            | sets ->
              let seen = Hashtbl.create 8 in
              List.filter
                (fun s ->
                  let id = Ptset.id s in
                  (not (Hashtbl.mem seen id)) && (Hashtbl.add seen id (); true))
                sets
          in
          let products =
            List.fold_left
              (fun acc sats ->
                dedup
                  (List.concat_map
                     (fun partial -> List.map (fun s -> Assumption.union partial s) sats)
                     acc))
              [ Assumption.empty ] satisfier_sets
          in
          List.iter (fun caller_aset -> flow_out st i.i_target i.i_pair caller_aset) products
        end
      end)
    group

(* ---- CI pruning helpers -------------------------------------------------------------- *)

(* Can this update node modify path [ps] at all, according to CI? *)
let ci_modifiable st nid ps = List.exists (fun l -> Apath.dom l ps) st.ci_locs.(nid)

(* assumption contribution of a location input, after pruning: none at
   a node CI proves to reference at most one location *)
let loc_assumptions st nid al =
  match st.ci_locs.(nid) with
  | ([] | [ _ ]) when st.config.ci_pruning -> Assumption.empty
  | _ -> al

(* ---- transfer functions --------------------------------------------------------------- *)

let flow_in st nid idx pair aset =
  st.t.flow_in_count <- st.t.flow_in_count + 1;
  Budget.tick_transfer st.budget;
  let n = Vdg.node st.t.g nid in
  let tbl = st.tbl in
  let input k = List.nth n.Vdg.ninputs k in
  let eps = Apath.empty_offset tbl in
  match n.Vdg.nkind with
  | Vdg.Nconst _ | Vdg.Nbase _ | Vdg.Nundef | Vdg.Nalloc _ -> ()
  | Vdg.Nlookup ->
    (match idx with
    | 0 ->
      let rl = pair.Ptpair.referent in
      let al = loc_assumptions st nid aset in
      if Apath.is_location rl then
        iter_qualified st (input 1) (fun sp sa ->
            if Apath.dom rl sp.Ptpair.path then
              let off =
                match Apath.subtract tbl sp.Ptpair.path rl with
                | Some off -> off
                | None -> eps
              in
              flow_out st nid
                (Ptpair.make off sp.Ptpair.referent)
                (Assumption.union al sa))
    | 1 ->
      iter_qualified st (input 0) (fun lp la ->
          let rl = lp.Ptpair.referent in
          let al = loc_assumptions st nid la in
          if Apath.is_location rl && Apath.dom rl pair.Ptpair.path then
            let off =
              match Apath.subtract tbl pair.Ptpair.path rl with
              | Some off -> off
              | None -> eps
            in
            flow_out st nid
              (Ptpair.make off pair.Ptpair.referent)
              (Assumption.union al aset))
    | _ -> ())
  | Vdg.Nupdate ->
    (match idx with
    | 0 ->
      let rl = pair.Ptpair.referent in
      let al = loc_assumptions st nid aset in
      if Apath.is_location rl then begin
        iter_qualified st (input 2) (fun vp va ->
            if Apath.is_offset vp.Ptpair.path then
              flow_out st nid
                (Ptpair.make (Apath.append tbl rl vp.Ptpair.path) vp.Ptpair.referent)
                (Assumption.union al va));
        iter_qualified st (input 1) (fun sp sa ->
            if not (Apath.strong_dom rl sp.Ptpair.path) then
              let contribution =
                if st.config.ci_pruning
                   && not (ci_modifiable st nid sp.Ptpair.path)
                then Assumption.empty
                else al
              in
              flow_out st nid sp (Assumption.union contribution sa))
      end
    | 1 ->
      (* a new store pair: blocked until some location pair has arrived *)
      let has_loc = st.t.head.(input 0) >= 0 in
      if has_loc then begin
        if st.config.ci_pruning && not (ci_modifiable st nid pair.Ptpair.path) then
          (* CI proves this update cannot touch the pair: pass it through
             without coupling it to any location assumptions *)
          flow_out st nid pair aset
        else
          iter_qualified st (input 0) (fun lp la ->
              let rl = lp.Ptpair.referent in
              if Apath.is_location rl && not (Apath.strong_dom rl pair.Ptpair.path)
              then
                flow_out st nid pair
                  (Assumption.union (loc_assumptions st nid la) aset))
      end
    | 2 ->
      if Apath.is_offset pair.Ptpair.path then
        iter_qualified st (input 0) (fun lp la ->
            let rl = lp.Ptpair.referent in
            if Apath.is_location rl then
              flow_out st nid
                (Ptpair.make (Apath.append tbl rl pair.Ptpair.path) pair.Ptpair.referent)
                (Assumption.union (loc_assumptions st nid la) aset))
    | _ -> ())
  | Vdg.Nfield_addr acc ->
    if idx = 0 && Apath.is_location pair.Ptpair.referent then
      flow_out st nid
        (Ptpair.make pair.Ptpair.path (Apath.extend tbl pair.Ptpair.referent acc))
        aset
  | Vdg.Noffset_read acc ->
    if idx = 0 then begin
      let acc_path = Apath.extend tbl eps acc in
      if Apath.dom acc_path pair.Ptpair.path then
        let off =
          match Apath.subtract tbl pair.Ptpair.path acc_path with
          | Some off -> off
          | None -> eps
        in
        flow_out st nid (Ptpair.make off pair.Ptpair.referent) aset
    end
  | Vdg.Noffset_write acc ->
    let acc_path = Apath.extend tbl eps acc in
    (match idx with
    | 0 ->
      let killed = acc <> Apath.Index && Apath.dom acc_path pair.Ptpair.path in
      if not killed then flow_out st nid pair aset
    | 1 ->
      if Apath.is_offset pair.Ptpair.path then
        flow_out st nid
          (Ptpair.make (Apath.append tbl acc_path pair.Ptpair.path) pair.Ptpair.referent)
          aset
    | _ -> ())
  | Vdg.Ngamma -> flow_out st nid pair aset
  | Vdg.Nprimop Vdg.Ptr_arith -> if idx = 0 then flow_out st nid pair aset
  | Vdg.Nprimop (Vdg.Scalar_op _) -> ()
  | Vdg.Nformal _ | Vdg.Nformal_store _ ->
    (* root-wiring inputs: entry facts get the self-assumption, mirroring
       call-site propagation *)
    flow_formal st nid pair
  | Vdg.Nret_value _ | Vdg.Nret_store _ -> flow_out st nid pair aset
  | Vdg.Ncall ->
    let cm = Hashtbl.find st.t.g.Vdg.call_meta nid in
    (match idx with
    | 0 -> ()  (* call graph is fixed from the CI solution *)
    | 1 ->
      Array.iter
        (fun ((meta : Vdg.fun_meta), _argmap) -> flow_formal st meta.Vdg.fm_formal_store pair)
        st.callees.(nid);
      List.iter
        (fun _ext -> flow_out st cm.Vdg.cm_cstore pair aset)
        (Ci_solver.extern_callees st.t.ci nid)
    | k ->
      let arg_idx = k - 2 in
      Array.iter
        (fun ((meta : Vdg.fun_meta), argmap) ->
          Array.iteri
            (fun formal_idx fnode ->
              let maps_here =
                match argmap with
                | None -> formal_idx = arg_idx
                | Some map ->
                  formal_idx < Array.length map && map.(formal_idx) = arg_idx
              in
              if maps_here then flow_formal st fnode pair)
            meta.Vdg.fm_formals)
        st.callees.(nid);
      List.iter
        (fun ext ->
          let fs = Hashtbl.find_opt st.t.g.Vdg.externs ext in
          let summary = Extern_summary.lookup ext fs in
          match cm.Vdg.cm_result, summary.Extern_summary.sum_returns with
          | Some res, Extern_summary.Ret_arg k' when k' = arg_idx ->
            flow_out st res pair aset
          | _ -> ())
        (Ci_solver.extern_callees st.t.ci nid))
  | Vdg.Ncall_result _ | Vdg.Ncall_store _ -> ()

(* ---- driver ------------------------------------------------------------------------------ *)

let seed st =
  let tbl = st.tbl in
  let eps = Apath.empty_offset tbl in
  Vdg.iter_nodes st.t.g (fun n ->
      match n.Vdg.nkind with
      | Vdg.Nbase b | Vdg.Nalloc b ->
        flow_out st n.Vdg.nid (Ptpair.make eps (Apath.of_base tbl b)) Assumption.empty
      | _ -> ());
  if st.t.g.Vdg.entry_store >= 0 then begin
    let argv_arr = Apath.mk_base tbl (Apath.Bext "argv") ~singular:false in
    let argv_str = Apath.mk_base tbl (Apath.Bext "argv_strings") ~singular:false in
    let slot = Apath.extend tbl (Apath.of_base tbl argv_arr) Apath.Index in
    flow_out st st.t.g.Vdg.entry_store
      (Ptpair.make slot (Apath.of_base tbl argv_str))
      Assumption.empty
  end;
  (* external results that exist regardless of argument values *)
  List.iter
    (fun call ->
      let cm = Hashtbl.find st.t.g.Vdg.call_meta call in
      List.iter
        (fun ext ->
          let fs = Hashtbl.find_opt st.t.g.Vdg.externs ext in
          let summary = Extern_summary.lookup ext fs in
          match cm.Vdg.cm_result, summary.Extern_summary.sum_returns with
          | Some res, Extern_summary.Ret_external name ->
            let base = Apath.mk_base tbl (Apath.Bext name) ~singular:false in
            flow_out st res
              (Ptpair.make eps (Apath.of_base tbl base))
              Assumption.empty
          | _ -> ())
        (Ci_solver.extern_callees st.t.ci call))
    st.t.g.Vdg.calls

(* The state over a CI solution: slot bases from CI's set sizes, the CI
   call graph (callee edges per call; per return node, the call sites it
   flows back to; both in CI's list orders) and CI's locations per
   memory operation. *)
let create config budget (g : Vdg.t) ci =
  let n = Vdg.n_nodes g in
  let base = Array.make (n + 1) 0 in
  for o = 0 to n - 1 do
    base.(o + 1) <- base.(o) + Ptset.cardinal (Ci_solver.pairs ci o)
  done;
  let slots = base.(n) in
  let callees = Array.make n [||] and sites = Array.make n [||] and ci_locs = Array.make n [] in
  List.iter
    (fun call ->
      let edge (name, argmap) =
        Option.map (fun meta -> (meta, argmap)) (Hashtbl.find_opt g.Vdg.funs name)
      in
      callees.(call) <- Array.of_list (List.filter_map edge (Ci_solver.callee_edges ci call)))
    g.Vdg.calls;
  let sites_of fname target =
    Array.of_list
      (List.filter_map
         (fun call ->
           let cm = Hashtbl.find g.Vdg.call_meta call in
           let named (name, argmap) = if String.equal name fname then Some argmap else None in
           Option.map
             (fun target ->
               let argmaps = List.filter_map named (Ci_solver.callee_edges ci call) in
               { s_call = cm; s_target = target; s_argmaps = Array.of_list argmaps })
             (target cm))
         (Ci_solver.callers ci fname))
  in
  Vdg.iter_nodes g (fun nd ->
      let nid = nd.Vdg.nid in
      match nd.Vdg.nkind with
      | Vdg.Nret_value f -> sites.(nid) <- sites_of f (fun cm -> cm.Vdg.cm_result)
      | Vdg.Nret_store f -> sites.(nid) <- sites_of f (fun cm -> Some cm.Vdg.cm_cstore)
      | Vdg.Nlookup | Vdg.Nupdate -> ci_locs.(nid) <- Ci_solver.referenced_locations ci nid
      | _ -> ());
  {
    t =
      {
        g;
        ci;
        actx = Assumption.create_ctx ();
        base;
        chains = Array.make slots [];
        next = Array.make slots (-1);
        head = Array.make n (-1);
        flow_in_count = 0;
        flow_out_count = 0;
        pushes = 0;
        pops = 0;
        stale_skips = 0;
        ptset_stats = Ptset.stats ();
      };
    tbl = g.Vdg.tbl;
    config;
    budget = (match budget with Some b -> b | None -> Budget.unlimited ());
    tail = Array.make n (-1);
    ver = Array.make slots 0;
    subs = Array.make slots [];
    callees;
    sites;
    ci_locs;
    worklist = Queue.create ();
  }

let solve ?(config = default_config) ?budget (g : Vdg.t) ~(ci : Ci_solver.t) : t =
  let before = Ptset.stats () in
  let st = create config budget g ci in
  let t = st.t in
  seed st;
  while not (Queue.is_empty st.worklist) do
    let slot, nid, idx, pair, aset = Queue.pop st.worklist in
    t.pops <- t.pops + 1;
    if (not config.stale_skip) || Assumption.Antichain.mem t.chains.(slot) aset then
      flow_in st nid idx pair aset
    else t.stale_skips <- t.stale_skips + 1
  done;
  t.ptset_stats <- Ptset.delta ~before ~after:(Ptset.stats ());
  t

(* ---- accessors ---------------------------------------------------------------------------- *)

(* [f pair chain] over an output's entries in first-arrival order *)
let map_entries t output f =
  let rec go slot acc =
    if slot < 0 then List.rev acc
    else go t.next.(slot) (f (pair_at t output slot) t.chains.(slot) :: acc)
  in
  go t.head.(output) []

let pairs t output = map_entries t output (fun pair _ -> pair)
let qualified t output = map_entries t output (fun pair chain -> (pair, chain))

(* the distinct location referents at a memory operation's location
   input, in arrival order, over the entries whose chain passes [keep] *)
let locations_where t nid keep =
  let n = Vdg.node t.g nid in
  match n.Vdg.nkind, n.Vdg.ninputs with
  | (Vdg.Nlookup | Vdg.Nupdate), loc :: _ ->
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc ((p : Ptpair.t), chain) ->
        let r = p.Ptpair.referent in
        if Apath.is_location r && (not (Hashtbl.mem seen r.Apath.pid)) && keep chain then begin
          Hashtbl.replace seen r.Apath.pid ();
          r :: acc
        end
        else acc)
      [] (qualified t loc)
    |> List.rev
  | _ -> []

let referenced_locations t nid = locations_where t nid (fun _ -> true)

(* ---- context-projected queries (paper, end of Section 4.1) ----------------- *)

(* an assumption set holds via [call] when, for some callee edge, every
   assumed formal pair is present on the matching actual *)
let satisfiable_at t ~call aset =
  Assumption.is_empty aset
  ||
  match Hashtbl.find_opt t.g.Vdg.call_meta call with
  | None -> false
  | Some cm ->
    List.exists
      (fun (_name, argmap) ->
        Array.for_all (fun s -> s >= 0 && t.chains.(s) <> []) (satisfiers t cm argmap aset))
      (Ci_solver.callee_edges t.ci call)

let locations_at_callsite t ~call nid =
  let callee_names = List.map fst (Ci_solver.callee_edges t.ci call) in
  if not (List.mem (Vdg.node t.g nid).Vdg.nfun callee_names) then referenced_locations t nid
  else locations_where t nid (List.exists (satisfiable_at t ~call))
