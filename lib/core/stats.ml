type pair_counts = {
  pc_pointer : int;
  pc_function : int;
  pc_aggregate : int;
  pc_store : int;
  pc_total : int;
}

let count_pairs g count_of =
  let ptr = ref 0 and fn = ref 0 and agg = ref 0 and store = ref 0 in
  Vdg.iter_nodes g (fun n ->
      let c = count_of n.Vdg.nid in
      if c > 0 then
        match n.Vdg.ntype with
        | Vdg.Vptr -> ptr := !ptr + c
        | Vdg.Vfun -> fn := !fn + c
        | Vdg.Vagg _ -> agg := !agg + c
        | Vdg.Vstore -> store := !store + c
        | Vdg.Vscalar -> ());
  {
    pc_pointer = !ptr;
    pc_function = !fn;
    pc_aggregate = !agg;
    pc_store = !store;
    pc_total = !ptr + !fn + !agg + !store;
  }

let ci_pair_counts ci =
  count_pairs (Ci_solver.graph ci) (fun nid ->
      Ptpair.Set.cardinal (Ci_solver.pairs ci nid))

let cs_pair_counts cs g =
  count_pairs g (fun nid -> List.length (Cs_solver.pairs cs nid))

(* ---- Figure 4 -------------------------------------------------------------- *)

type histogram = {
  h_total : int;
  h_zero : int;
  h_n : int array;
  h_max : int;
  h_avg : float;
}

let empty_histogram = { h_total = 0; h_zero = 0; h_n = [| 0; 0; 0; 0 |]; h_max = 0; h_avg = 0. }

let histogram_of_counts counts =
  let h_n = [| 0; 0; 0; 0 |] in
  let zero = ref 0 and total = ref 0 and maxi = ref 0 and sum = ref 0 in
  List.iter
    (fun c ->
      incr total;
      if c = 0 then incr zero
      else begin
        let bucket = if c >= 4 then 3 else c - 1 in
        h_n.(bucket) <- h_n.(bucket) + 1;
        maxi := max !maxi c;
        sum := !sum + c
      end)
    counts;
  let nonzero = !total - !zero in
  {
    h_total = !total;
    h_zero = !zero;
    h_n;
    h_max = !maxi;
    h_avg = (if nonzero = 0 then 0. else float_of_int !sum /. float_of_int nonzero);
  }

let indirect_histograms g locations_of =
  let reads = ref [] and writes = ref [] in
  List.iter
    (fun (n, rw) ->
      let c = List.length (locations_of n.Vdg.nid) in
      match rw with
      | `Read -> reads := c :: !reads
      | `Write -> writes := c :: !writes)
    (Vdg.indirect_memops g);
  let mk = function [] -> empty_histogram | counts -> histogram_of_counts counts in
  (mk !reads, mk !writes)

(* ---- Figure 7 -------------------------------------------------------------- *)

type path_class = Coffset | Clocal | Cglobal | Cheap

let class_of_base (b : Apath.base) =
  match b.Apath.bkind with
  | Apath.Bvar v ->
    (match v.Sil.vkind with
    | Sil.Global -> Cglobal
    | Sil.Local _ | Sil.Param _ | Sil.Temp _ -> Clocal)
  | Apath.Bheap _ -> Cheap
  | Apath.Bstr _ | Apath.Bext _ | Apath.Bfun _ -> Cglobal

let classify_path (p : Apath.t) =
  match p.Apath.proot with
  | None -> Coffset
  | Some b -> class_of_base b

let classify_referent (p : Apath.t) =
  match p.Apath.proot with
  | None -> `Global  (* not expected: referents are locations *)
  | Some b ->
    (match b.Apath.bkind with
    | Apath.Bfun _ -> `Function
    | _ ->
      (match class_of_base b with
      | Clocal -> `Local
      | Cheap -> `Heap
      | Cglobal | Coffset -> `Global))

type breakdown = {
  bd_counts : int array array;
  bd_total : int;
}

let path_index = function Coffset -> 0 | Clocal -> 1 | Cglobal -> 2 | Cheap -> 3
let referent_index = function `Function -> 0 | `Local -> 1 | `Global -> 2 | `Heap -> 3

let breakdown_of_pairs pairs =
  let counts = Array.init 4 (fun _ -> Array.make 4 0) in
  let total = ref 0 in
  List.iter
    (fun (p : Ptpair.t) ->
      let i = path_index (classify_path p.Ptpair.path) in
      let j = referent_index (classify_referent p.Ptpair.referent) in
      counts.(i).(j) <- counts.(i).(j) + 1;
      incr total)
    pairs;
  { bd_counts = counts; bd_total = !total }

let all_ci_pairs ci =
  let g = Ci_solver.graph ci in
  let acc = ref [] in
  Vdg.iter_nodes g (fun n ->
      Ptpair.Set.iter g.Vdg.tbl (fun p -> acc := p :: !acc) (Ci_solver.pairs ci n.Vdg.nid));
  !acc

let ci_breakdown ci = breakdown_of_pairs (all_ci_pairs ci)

let spurious_pairs ci cs =
  let g = Ci_solver.graph ci in
  let acc = ref [] in
  Vdg.iter_nodes g (fun n ->
      let cs_set = Cs_solver.pairs cs n.Vdg.nid in
      let cs_tbl = Hashtbl.create (List.length cs_set) in
      List.iter (fun p -> Hashtbl.replace cs_tbl (Ptpair.key p) ()) cs_set;
      Ptpair.Set.iter g.Vdg.tbl
        (fun p -> if not (Hashtbl.mem cs_tbl (Ptpair.key p)) then acc := p :: !acc)
        (Ci_solver.pairs ci n.Vdg.nid));
  !acc

let spurious_breakdown ci cs = breakdown_of_pairs (spurious_pairs ci cs)

let spurious_total ci cs = List.length (spurious_pairs ci cs)

(* ---- Section 4.2 pruning ------------------------------------------------------ *)

type pruning = {
  pr_ops : int;
  pr_single : int;
  pr_ptr_ops : int;
  pr_ptr_multi : int;
}

let carries_pointers (n : Vdg.node) =
  match n.Vdg.nkind, n.Vdg.ntype with
  | Vdg.Nlookup, (Vdg.Vptr | Vdg.Vfun | Vdg.Vagg true) -> true
  | Vdg.Nlookup, _ -> false
  | Vdg.Nupdate, _ ->
    (* an update carries pointers when the stored value can *)
    (match n.Vdg.ninputs with
    | [ _; _; _ ] -> true  (* refined by the caller via value type below *)
    | _ -> false)
  | _ -> false

let pruning_stats ci =
  let g = Ci_solver.graph ci in
  let ops = ref 0 and single = ref 0 and ptr_ops = ref 0 and ptr_multi = ref 0 in
  List.iter
    (fun ((n : Vdg.node), _rw) ->
      incr ops;
      let nlocs = List.length (Ci_solver.referenced_locations ci n.Vdg.nid) in
      if nlocs <= 1 then incr single;
      let ptrish =
        match n.Vdg.nkind with
        | Vdg.Nlookup -> carries_pointers n
        | Vdg.Nupdate ->
          (match n.Vdg.ninputs with
          | [ _; _; value ] ->
            (match (Vdg.node g value).Vdg.ntype with
            | Vdg.Vptr | Vdg.Vfun | Vdg.Vagg true -> true
            | _ -> false)
          | _ -> false)
        | _ -> false
      in
      if ptrish then begin
        incr ptr_ops;
        if nlocs > 1 then incr ptr_multi
      end)
    (Vdg.indirect_memops g);
  { pr_ops = !ops; pr_single = !single; pr_ptr_ops = !ptr_ops; pr_ptr_multi = !ptr_multi }

(* ---- call graph ----------------------------------------------------------------- *)

type callgraph = {
  cg_functions : int;
  cg_avg_callers : float;
  cg_single_caller_pct : float;
}

let callgraph_stats ci g =
  let called = ref [] in
  Hashtbl.iter
    (fun fname _meta ->
      if fname <> Sil.global_init_name then begin
        let n_callers = List.length (Ci_solver.callers ci fname) in
        if n_callers > 0 then called := n_callers :: !called
      end)
    g.Vdg.funs;
  let n = List.length !called in
  if n = 0 then { cg_functions = 0; cg_avg_callers = 0.; cg_single_caller_pct = 0. }
  else begin
    let sum = List.fold_left ( + ) 0 !called in
    let singles = List.length (List.filter (fun c -> c = 1) !called) in
    {
      cg_functions = n;
      cg_avg_callers = float_of_int sum /. float_of_int n;
      cg_single_caller_pct = 100. *. float_of_int singles /. float_of_int n;
    }
  end

let alias_related_outputs g =
  let count = ref 0 in
  Vdg.iter_nodes g (fun n -> if Vdg.is_alias_related n.Vdg.ntype then incr count);
  !count
