(* The incremental re-solve: diff per-procedure digests against a
   previous snapshot, translate the unchanged procedures' points-to
   facts into the new compile's interned tables, freeze them, and
   iterate the CI fixpoint over the dirty region only, growing the
   region until the splice is provably consistent.

   Identity translation.  Everything program-wide shifts under an edit:
   node ids, variable ids, heap-site ids, string-pool indexes, interned
   path ids.  Facts are carried across compiles by stable identities
   instead — variables by (function, position among formals@locals) or
   by name for globals, heap sites by (function, allocation ordinal),
   strings by content, functions and externs by name.  Old access paths
   are deconstructed structurally (root base + accessor chain) and
   re-interned in the new table; any base or variable that fails to map
   dirties the procedure whose facts mention it (sound: dirty procedures
   are simply re-solved).

   Node mapping.  For a digest-clean procedure the builder creates the
   same node sequence in the same order — with one exception: gamma
   placement iterates a hash table keyed by program-wide variable ids,
   so gamma creation order can permute when vids shift.  Gammas carry a
   stable (key position, block) tag ({!Vdg.node_tags}) and are matched
   by tag; every other node is matched positionally.  Every match is
   verified (kind, translated bases, output type); any mismatch — e.g. a
   variable's singularity flipped because an edit elsewhere made its
   function recursive — dirties the procedure.

   Splice invariants.  After a region solve the splice is valid iff
   (1) no frozen node's pair set grew (checked by {!Ci_solver.solve_warm}),
   (2) every frozen procedure's formal/formal-store pair sets equal the
       union of their new contributions (callers' actuals/stores plus
       wired producers) — detects shrinkage and removed call edges, and
   (3) every re-solved callee's return/return-store summary equals its
       translated previous summary wherever a frozen caller consumed it.
   Any violation dirties the offending procedures and the loop re-runs;
   in the worst case everything is dirty and the solve equals a cold
   one.  [solution_digest] equality against a from-scratch solve is the
   end-to-end oracle (test/test_incr.ml). *)

type prev = {
  pv_prog : Sil.program;
  pv_graph : Vdg.t;
  pv_ci : Ci_solver.t;
  pv_digests : (string * string) list;
  pv_program_digest : string;
}

let snapshot prog graph ci =
  {
    pv_prog = prog;
    pv_graph = graph;
    pv_ci = ci;
    pv_digests = Proc_summary.digests prog;
    pv_program_digest = Proc_summary.program_digest prog;
  }

type stats = {
  st_procs_total : int;
  st_dirty_initial : int;
  st_resolved : int;
  st_reused : int;
  st_summary_hits : int;
  st_rounds : int;
  st_violations : int;
  st_full_fallback : bool;
}

type outcome = {
  o_ci : Ci_solver.t;
  o_stats : stats;
  o_dirty : string list;
}

(* ---- variable / site / string identity maps ---------------------------------- *)

type ident_maps = {
  im_var : Sil.var -> Sil.var option;       (* old var -> new var *)
  im_site : int -> int option;              (* old heap site -> new *)
  im_str : int -> int option;               (* old string index -> new *)
  im_fun_ok : string -> bool;
      (* the name still denotes the same function: defined in both
         programs, or external (defined in neither) — an extern's
         identity is its name, so it always translates *)
}

let local_slot (fd : Sil.fundec) =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i (v : Sil.var) -> Hashtbl.replace tbl v.Sil.vid i)
    (fd.Sil.fd_formals @ fd.Sil.fd_locals);
  tbl

let alloc_sites (prog : Sil.program) =
  (* site id -> (function, ordinal) and back; ordinals follow block-array
     / instruction-list order, the same order {!Proc_summary} prints *)
  let fwd = Hashtbl.create 64 in
  let bwd = Hashtbl.create 64 in
  List.iter
    (fun (fd : Sil.fundec) ->
      let ord = ref 0 in
      Array.iter
        (fun (b : Sil.block) ->
          List.iter
            (function
              | Sil.Alloc (_, _, site, _) ->
                Hashtbl.replace fwd site (fd.Sil.fd_name, !ord);
                Hashtbl.replace bwd (fd.Sil.fd_name, !ord) site;
                incr ord
              | _ -> ())
            b.Sil.binstrs)
        fd.Sil.fd_blocks)
    prog.Sil.p_functions;
  (fwd, bwd)

let ident_maps (old_prog : Sil.program) (new_prog : Sil.program) : ident_maps =
  let new_funs = Hashtbl.create 64 in
  List.iter
    (fun (fd : Sil.fundec) -> Hashtbl.replace new_funs fd.Sil.fd_name fd)
    new_prog.Sil.p_functions;
  let old_slots = Hashtbl.create 64 in
  List.iter
    (fun (fd : Sil.fundec) ->
      Hashtbl.replace old_slots fd.Sil.fd_name (local_slot fd))
    old_prog.Sil.p_functions;
  let new_vars_by_slot = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name fd ->
      Hashtbl.replace new_vars_by_slot name
        (Array.of_list (fd.Sil.fd_formals @ fd.Sil.fd_locals)))
    new_funs;
  let new_globals = Hashtbl.create 64 in
  List.iter
    (fun (v : Sil.var) -> Hashtbl.replace new_globals v.Sil.vname v)
    new_prog.Sil.p_globals;
  let old_sites, _ = alloc_sites old_prog in
  let _, new_sites = alloc_sites new_prog in
  let new_str = Hashtbl.create 64 in
  Array.iteri
    (fun i s -> if not (Hashtbl.mem new_str s) then Hashtbl.add new_str s i)
    new_prog.Sil.p_strings;
  let im_var (v : Sil.var) =
    match v.Sil.vkind with
    | Sil.Global -> Hashtbl.find_opt new_globals v.Sil.vname
    | Sil.Local f | Sil.Param (f, _) | Sil.Temp f -> (
      match
        ( Hashtbl.find_opt old_slots f,
          Hashtbl.find_opt new_vars_by_slot f )
      with
      | Some slots, Some news -> (
        match Hashtbl.find_opt slots v.Sil.vid with
        | Some i when i < Array.length news -> Some news.(i)
        | _ -> None)
      | _ -> None)
  in
  let im_site site =
    match Hashtbl.find_opt old_sites site with
    | Some key -> Hashtbl.find_opt new_sites key
    | None -> None
  in
  let im_str idx =
    if idx >= 0 && idx < Array.length old_prog.Sil.p_strings then
      Hashtbl.find_opt new_str old_prog.Sil.p_strings.(idx)
    else None
  in
  let im_fun_ok name =
    Hashtbl.mem new_funs name || not (Hashtbl.mem old_slots name)
  in
  { im_var; im_site; im_str; im_fun_ok }

(* ---- path / pair translation --------------------------------------------------- *)

exception Untranslatable

type translator = {
  tr_pair : Ptpair.t -> Ptpair.t;  (* raises Untranslatable *)
  tr_base_checked : Apath.base -> Apath.base;  (* raises; also on taint *)
}

let translator (im : ident_maps) (tbl : Apath.table) : translator =
  let base_memo : (int, Apath.base) Hashtbl.t = Hashtbl.create 256 in
  let tr_base (b : Apath.base) : Apath.base =
    match Hashtbl.find_opt base_memo b.Apath.bid with
    | Some nb -> nb
    | None ->
      let kind =
        match b.Apath.bkind with
        | Apath.Bvar v -> (
          match im.im_var v with
          | Some nv -> Apath.Bvar nv
          | None -> raise Untranslatable)
        | Apath.Bheap site -> (
          match im.im_site site with
          | Some s -> Apath.Bheap s
          | None -> raise Untranslatable)
        | Apath.Bstr idx -> (
          match im.im_str idx with
          | Some i -> Apath.Bstr i
          | None -> raise Untranslatable)
        | Apath.Bfun name ->
          if im.im_fun_ok name then Apath.Bfun name else raise Untranslatable
        | Apath.Bext name -> Apath.Bext name
      in
      let before = Apath.base_count tbl in
      let nb = Apath.mk_base tbl kind ~singular:b.Apath.bsingular in
      let existed = Apath.base_count tbl = before in
      (* a base the new build interned with a different singularity means
         the variable's strong-update treatment changed (e.g. its function
         became recursive): facts mentioning it cannot be spliced *)
      if existed && nb.Apath.bsingular <> b.Apath.bsingular then
        raise Untranslatable;
      Hashtbl.replace base_memo b.Apath.bid nb;
      nb
  in
  let path_memo : (int, Apath.t) Hashtbl.t = Hashtbl.create 1024 in
  let tr_path (p : Apath.t) : Apath.t =
    match Hashtbl.find_opt path_memo p.Apath.pid with
    | Some np -> np
    | None ->
      let start =
        match p.Apath.proot with
        | Some b -> Apath.of_base tbl (tr_base b)
        | None -> Apath.empty_offset tbl
      in
      let np =
        List.fold_left (fun acc a -> Apath.extend tbl acc a) start p.Apath.paccs
      in
      Hashtbl.replace path_memo p.Apath.pid np;
      np
  in
  {
    tr_pair =
      (fun pr -> Ptpair.make (tr_path pr.Ptpair.path) (tr_path pr.Ptpair.referent));
    tr_base_checked = tr_base;
  }

(* ---- per-procedure node matching ----------------------------------------------- *)

let nodes_by_fun (g : Vdg.t) : (string, Vdg.node list ref) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  (* a procedure's nodes are mostly consecutive: reuse the last cell *)
  let last = ref None in
  Vdg.iter_nodes g (fun n ->
      let cell =
        match !last with
        | Some (name, cell) when String.equal name n.Vdg.nfun -> cell
        | _ ->
          let cell =
            match Hashtbl.find_opt tbl n.Vdg.nfun with
            | Some cell -> cell
            | None ->
              let cell = ref [] in
              Hashtbl.add tbl n.Vdg.nfun cell;
              cell
          in
          last := Some (n.Vdg.nfun, cell);
          cell
      in
      cell := n :: !cell);
  Hashtbl.iter (fun _ cell -> cell := List.rev !cell) tbl;
  tbl

let kinds_match (tr : translator) (o : Vdg.node) (n : Vdg.node) : bool =
  o.Vdg.ntype = n.Vdg.ntype
  &&
  match (o.Vdg.nkind, n.Vdg.nkind) with
  | Vdg.Nconst a, Vdg.Nconst b -> a = b
  | Vdg.Nbase ob, Vdg.Nbase nb | Vdg.Nalloc ob, Vdg.Nalloc nb -> (
    match tr.tr_base_checked ob with
    | tb -> tb.Apath.bid = nb.Apath.bid
    | exception Untranslatable -> false)
  | Vdg.Nundef, Vdg.Nundef
  | Vdg.Nlookup, Vdg.Nlookup
  | Vdg.Nupdate, Vdg.Nupdate
  | Vdg.Ngamma, Vdg.Ngamma
  | Vdg.Ncall, Vdg.Ncall
  | Vdg.Ncall_result _, Vdg.Ncall_result _
  | Vdg.Ncall_store _, Vdg.Ncall_store _ ->
    true
  | Vdg.Nfield_addr a, Vdg.Nfield_addr b
  | Vdg.Noffset_read a, Vdg.Noffset_read b
  | Vdg.Noffset_write a, Vdg.Noffset_write b ->
    a = b
  | Vdg.Nprimop a, Vdg.Nprimop b -> a = b
  | Vdg.Nformal (f, i), Vdg.Nformal (f', i') -> f = f' && i = i'
  | Vdg.Nformal_store f, Vdg.Nformal_store f'
  | Vdg.Nret_value f, Vdg.Nret_value f'
  | Vdg.Nret_store f, Vdg.Nret_store f' ->
    f = f'
  | _ -> false

(* Match a clean procedure's old nodes to its new ones: positionally for
   deterministic kinds, by (key position, block) tag for gammas.  Returns
   pairs (old node, new node id) or None on any mismatch. *)
let match_proc (tr : translator) (old_g : Vdg.t) (new_g : Vdg.t)
    (olds : Vdg.node list) (news : Vdg.node list) :
    (Vdg.node * Vdg.node_id) list option =
  let is_gamma (n : Vdg.node) = n.Vdg.nkind = Vdg.Ngamma in
  let old_plain = List.filter (fun n -> not (is_gamma n)) olds in
  let new_plain = List.filter (fun n -> not (is_gamma n)) news in
  let old_gammas = List.filter is_gamma olds in
  let new_gammas = List.filter is_gamma news in
  if
    List.length old_plain <> List.length new_plain
    || List.length old_gammas <> List.length new_gammas
  then None
  else
    let ok = ref true in
    let acc = ref [] in
    List.iter2
      (fun (o : Vdg.node) (n : Vdg.node) ->
        if kinds_match tr o n then acc := (o, n.Vdg.nid) :: !acc
        else ok := false)
      old_plain new_plain;
    (* gammas by tag; duplicate or missing tags fail the match *)
    let new_by_tag = Hashtbl.create 16 in
    List.iter
      (fun (n : Vdg.node) ->
        match Vdg.tag_of new_g n.Vdg.nid with
        | Some tag ->
          if Hashtbl.mem new_by_tag tag then ok := false
          else Hashtbl.add new_by_tag tag n
        | None -> ok := false)
      new_gammas;
    List.iter
      (fun (o : Vdg.node) ->
        match Vdg.tag_of old_g o.Vdg.nid with
        | Some tag -> (
          match Hashtbl.find_opt new_by_tag tag with
          | Some n when kinds_match tr o n ->
            Hashtbl.remove new_by_tag tag;
            acc := (o, n.Vdg.nid) :: !acc
          | _ -> ok := false)
        | None -> ok := false)
      old_gammas;
    if !ok then Some !acc else None

(* ---- the update loop ------------------------------------------------------------ *)

(* per-clean-procedure translated state *)
type proc_state = {
  prs_pairs : (Vdg.node_id * Ptpair.Set.t) list;
  prs_calls : (Vdg.node_id * (string * int array option) list) list;
  prs_ext_calls : (Vdg.node_id * string list) list;
}

let actual_for (cm : Vdg.call_meta) (argmap : int array option) formal_idx =
  match argmap with
  | None ->
    if formal_idx < Array.length cm.Vdg.cm_args then
      Some cm.Vdg.cm_args.(formal_idx)
    else None
  | Some map ->
    if formal_idx < Array.length map && map.(formal_idx) < Array.length cm.Vdg.cm_args
    then Some cm.Vdg.cm_args.(map.(formal_idx))
    else None

let update ?(config = Ci_solver.default_config) ?budget ~(prev : prev)
    (prog : Sil.program) (graph : Vdg.t) : outcome =
  let names = List.map (fun (fd : Sil.fundec) -> fd.Sil.fd_name) prog.Sil.p_functions in
  let total = List.length names in
  let old_digests = Hashtbl.create 64 in
  List.iter (fun (n, d) -> Hashtbl.replace old_digests n d) prev.pv_digests;
  let new_digests = Proc_summary.digests prog in
  let full_fallback =
    Proc_summary.program_digest prog <> prev.pv_program_digest
  in
  let dirty = Hashtbl.create 64 in
  let mark name = Hashtbl.replace dirty name () in
  if full_fallback then List.iter mark names
  else begin
    List.iter
      (fun (name, d) ->
        match Hashtbl.find_opt old_digests name with
        | Some d' when d' = d -> ()
        | _ -> mark name)
      new_digests;
    (* a removed procedure's callers consumed a summary that no longer
       exists: dirty them (covers indirect calls via the discovered
       edges of the previous solve) *)
    let new_names = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace new_names n ()) names;
    let removed =
      List.filter_map
        (fun (n, _) -> if Hashtbl.mem new_names n then None else Some n)
        prev.pv_digests
    in
    if removed <> [] then begin
      let old_dep = Dep_graph.of_solution prev.pv_prog prev.pv_ci in
      List.iter
        (fun r ->
          List.iter
            (fun c -> if Hashtbl.mem new_names c then mark c)
            (Dep_graph.callers old_dep r))
        removed
    end
  end;
  let dirty_initial = Hashtbl.length dirty in
  (* translation + node matching for every initially-clean procedure *)
  let im = ident_maps prev.pv_prog prog in
  let tr = translator im graph.Vdg.tbl in
  let old_by_fun = nodes_by_fun prev.pv_graph in
  let new_by_fun = nodes_by_fun graph in
  (* the previous solution's pair sets are hash-consed: nodes sharing a
     set share one translation (keyed by the set's id), and overlapping
     sets share per-pair work (keyed by the old {!Ptpair.key}) *)
  let old_tbl = prev.pv_graph.Vdg.tbl in
  let key_memo : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let tr_key k =
    match Hashtbl.find_opt key_memo k with
    | Some nk -> nk
    | None ->
      let nk = Ptpair.key (tr.tr_pair (Ptpair.of_key old_tbl k)) in
      Hashtbl.replace key_memo k nk;
      nk
  in
  let set_memo : (int, Ptpair.Set.t) Hashtbl.t = Hashtbl.create 1024 in
  (* raises Untranslatable *)
  let tr_set (s : Ptpair.Set.t) =
    match Hashtbl.find_opt set_memo (Ptset.id s) with
    | Some ns -> ns
    | None ->
      let ns = Ptset.of_list (Ptset.fold (fun k acc -> tr_key k :: acc) s []) in
      Hashtbl.replace set_memo (Ptset.id s) ns;
      ns
  in
  let tr_pairs_of nid = tr_set (Ci_solver.pairs prev.pv_ci nid) in
  let states : (string, proc_state) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun name ->
      if not (Hashtbl.mem dirty name) then begin
        let olds =
          match Hashtbl.find_opt old_by_fun name with Some c -> !c | None -> []
        in
        let news =
          match Hashtbl.find_opt new_by_fun name with Some c -> !c | None -> []
        in
        match match_proc tr prev.pv_graph graph olds news with
        | None -> mark name
        | Some matched -> (
          match
            let pairs =
              List.map
                (fun ((o : Vdg.node), nid) -> (nid, tr_pairs_of o.Vdg.nid))
                matched
            in
            let calls =
              List.filter_map
                (fun ((o : Vdg.node), nid) ->
                  if o.Vdg.nkind = Vdg.Ncall then
                    let edges =
                      List.filter
                        (fun (callee, _) -> Hashtbl.mem graph.Vdg.funs callee)
                        (Ci_solver.callee_edges prev.pv_ci o.Vdg.nid)
                    in
                    Some (nid, edges)
                  else None)
                matched
            in
            let ext_calls =
              List.filter_map
                (fun ((o : Vdg.node), nid) ->
                  if o.Vdg.nkind = Vdg.Ncall then
                    match Ci_solver.extern_callees prev.pv_ci o.Vdg.nid with
                    | [] -> None
                    | exts -> Some (nid, exts)
                  else None)
                matched
            in
            { prs_pairs = pairs; prs_calls = calls; prs_ext_calls = ext_calls }
          with
          | st -> Hashtbl.replace states name st
          | exception Untranslatable -> mark name)
      end)
    names;
  (* translated previous return summaries, for splice check (3) — built
     lazily per re-solved callee a frozen caller consumes *)
  let old_ret_memo : (string, (Ptset.t * Ptset.t) option) Hashtbl.t =
    Hashtbl.create 32
  in
  let translated_old_rets name =
    match Hashtbl.find_opt old_ret_memo name with
    | Some r -> r
    | None ->
      let r =
        match Hashtbl.find_opt prev.pv_graph.Vdg.funs name with
        | None -> None
        | Some meta -> (
          let set_of nid =
            match tr_pairs_of nid with
            | s -> Some s
            | exception Untranslatable -> None
          in
          let rv =
            match meta.Vdg.fm_ret_value with
            | Some nid -> set_of nid
            | None -> Some Ptset.empty
          in
          match (rv, set_of meta.Vdg.fm_ret_store) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
      in
      Hashtbl.replace old_ret_memo name r;
      r
  in
  (* region-growth loop *)
  let rounds = ref 0 in
  let violations_total = ref 0 in
  let summary_hits = ref 0 in
  let result = ref None in
  while !result = None do
    incr rounds;
    let clean =
      List.filter
        (fun n -> (not (Hashtbl.mem dirty n)) && Hashtbl.mem states n)
        names
    in
    let clean_set = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace clean_set n ()) clean;
    let frozen = Array.make (Vdg.n_nodes graph) false in
    Vdg.iter_nodes graph (fun n ->
        if n.Vdg.nfun <> "" && Hashtbl.mem clean_set n.Vdg.nfun then
          frozen.(n.Vdg.nid) <- true);
    let preset = ref [] and calls = ref [] and ext_calls = ref [] in
    List.iter
      (fun n ->
        let st = Hashtbl.find states n in
        preset := st.prs_pairs @ !preset;
        calls := st.prs_calls @ !calls;
        ext_calls := st.prs_ext_calls @ !ext_calls)
      clean;
    let t, grown =
      Ci_solver.solve_warm ~config ?budget graph ~frozen ~preset:!preset
        ~calls:!calls ~ext_calls:!ext_calls
    in
    let newly = Hashtbl.create 16 in
    List.iter
      (fun nid ->
        let f = (Vdg.node graph nid).Vdg.nfun in
        if f <> "" && not (Hashtbl.mem dirty f) then begin
          incr violations_total;
          Hashtbl.replace newly f ()
        end)
      grown;
    if Hashtbl.length newly = 0 then begin
      (* splice checks (2) and (3) *)
      let hits = ref 0 in
      List.iter
        (fun p ->
          if not (Hashtbl.mem newly p) then begin
            let meta = Hashtbl.find graph.Vdg.funs p in
            (* (2): formal channels equal the union of their new
               contributions *)
            let contributions channel ~formal_idx =
              let s = ref Ptset.empty in
              let add src = s := Ptset.union !s (Ci_solver.pairs t src) in
              List.iter add (Vdg.node graph channel).Vdg.ninputs;
              List.iter
                (fun call ->
                  let cm = Hashtbl.find graph.Vdg.call_meta call in
                  List.iter
                    (fun (callee, argmap) ->
                      if callee = p then
                        match formal_idx with
                        | Some i -> Option.iter add (actual_for cm argmap i)
                        | None -> add cm.Vdg.cm_store)
                    (Ci_solver.callee_edges t call))
                (Ci_solver.callers t p);
              !s
            in
            let channel_ok channel ~formal_idx =
              Ptset.equal (contributions channel ~formal_idx) (Ci_solver.pairs t channel)
            in
            let ok = ref true in
            Array.iteri
              (fun i fnode ->
                if !ok && not (channel_ok fnode ~formal_idx:(Some i)) then
                  ok := false)
              meta.Vdg.fm_formals;
            if !ok && not (channel_ok meta.Vdg.fm_formal_store ~formal_idx:None)
            then ok := false;
            (* (3): every re-solved callee summary this procedure consumed
               still equals its translated previous value *)
            if !ok then begin
              let st = Hashtbl.find states p in
              List.iter
                (fun (call, edges) ->
                  List.iter
                    (fun (callee, _) ->
                      if !ok && not (Hashtbl.mem clean_set callee) then begin
                        match
                          ( translated_old_rets callee,
                            Hashtbl.find_opt graph.Vdg.funs callee )
                        with
                        | Some (orv, ors), Some cmeta ->
                          let nrv =
                            match cmeta.Vdg.fm_ret_value with
                            | Some nid -> Ci_solver.pairs t nid
                            | None -> Ptset.empty
                          in
                          let nrs = Ci_solver.pairs t cmeta.Vdg.fm_ret_store in
                          if Ptset.equal orv nrv && Ptset.equal ors nrs then
                            incr hits
                          else ok := false
                        | _ -> ok := false
                      end;
                      ignore call)
                    edges)
                st.prs_calls
            end;
            if not !ok then Hashtbl.replace newly p ()
          end)
        clean;
      if Hashtbl.length newly = 0 then begin
        summary_hits := !hits;
        result := Some t
      end
    end;
    Hashtbl.iter (fun p () -> mark p) newly;
    (* termination: when everything is dirty the next round freezes
       nothing and trivially passes every check *)
    if !rounds > total + 2 then begin
      (* defensive: should be unreachable — every extra round dirties at
         least one procedure *)
      let t, _ =
        Ci_solver.solve_warm ~config ?budget graph
          ~frozen:(Array.make (Vdg.n_nodes graph) false)
          ~preset:[] ~calls:[] ~ext_calls:[]
      in
      result := Some t
    end
  done;
  let t = Option.get !result in
  let reused =
    List.length (List.filter (fun n -> not (Hashtbl.mem dirty n)) names)
  in
  {
    o_ci = t;
    o_stats =
      {
        st_procs_total = total;
        st_dirty_initial = dirty_initial;
        st_resolved = total - reused;
        st_reused = reused;
        st_summary_hits = !summary_hits;
        st_rounds = !rounds;
        st_violations = !violations_total;
        st_full_fallback = full_fallback;
      };
    o_dirty =
      List.sort compare
        (Hashtbl.fold (fun n () acc -> n :: acc) dirty []);
  }
