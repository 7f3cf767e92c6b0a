(* Tests for the statistics, mod/ref client, figure assembly, pair sets,
   and extern summaries. *)

let analyze src =
  let prog = Norm.compile ~file:"st.c" src in
  let g = Vdg_build.build prog in
  let ci = Ci_solver.solve g in
  let cs = Cs_solver.solve g ~ci in
  (prog, g, ci, cs)

(* ---- Ptpair.Set -------------------------------------------------------------- *)

let mk_tbl () =
  let tbl = Apath.create_table () in
  let base name =
    let v = { Sil.vid = Hashtbl.hash name; vname = name; vtype = Ctype.int_t;
              vkind = Sil.Global; vaddr_taken = false } in
    Apath.of_base tbl (Apath.mk_base tbl (Apath.Bvar v) ~singular:true)
  in
  (tbl, base)

let pair_set_dedup () =
  let tbl, base = mk_tbl () in
  let p = Ptpair.make (Apath.empty_offset tbl) (base "x") in
  let s = Ptset.add Ptset.empty (Ptpair.key p) in
  Alcotest.(check bool) "first add grows" false (Ptset.equal s Ptset.empty);
  Alcotest.(check bool) "duplicate is the same set" true
    (Ptset.add s (Ptpair.key p) == s);
  Alcotest.(check int) "cardinal" 1 (Ptpair.Set.cardinal s);
  Alcotest.(check bool) "mem" true (Ptpair.Set.mem s p)

(* iteration runs in key order and decodes through the table *)
let pair_set_insertion_order () =
  let tbl, base = mk_tbl () in
  let mk name = Ptpair.make (Apath.empty_offset tbl) (base name) in
  let ps = List.map mk [ "a"; "b"; "c" ] in
  let s = Ptset.of_list (List.rev_map Ptpair.key ps) in
  let elems = Ptpair.Set.elements tbl s in
  Alcotest.(check int) "three" 3 (List.length elems);
  Alcotest.(check bool) "key order" true
    (List.map Ptpair.key elems = List.sort compare (List.map Ptpair.key ps));
  Alcotest.(check bool) "decoded pairs" true (List.for_all2 Ptpair.equal elems ps)

let pair_ops () =
  let tbl, base = mk_tbl () in
  let p = Ptpair.make (Apath.empty_offset tbl) (base "x") in
  let q = Ptpair.make (Apath.empty_offset tbl) (base "y") in
  Alcotest.(check bool) "equal self" true (Ptpair.equal p p);
  Alcotest.(check bool) "distinct" false (Ptpair.equal p q);
  Alcotest.(check bool) "compare consistent" true
    (Ptpair.compare p q <> 0 && Ptpair.compare p p = 0)

(* ---- Stats ----------------------------------------------------------------------- *)

let pair_counts_by_type () =
  let _, _, ci, _ =
    analyze "int x; int *p; int main(void) { p = &x; return *p; }"
  in
  let pc = Stats.ci_pair_counts ci in
  Alcotest.(check bool) "pointer pairs exist" true (pc.Stats.pc_pointer > 0);
  Alcotest.(check bool) "store pairs exist" true (pc.Stats.pc_store > 0);
  Alcotest.(check int) "total is the sum"
    (pc.Stats.pc_pointer + pc.Stats.pc_function + pc.Stats.pc_aggregate
   + pc.Stats.pc_store)
    pc.Stats.pc_total

let histogram_bucketing () =
  let h =
    (* counts: one op with 0, two with 1, one with 2, one with 5 *)
    let counts = [ 0; 1; 1; 2; 5 ] in
    (* reach inside via indirect_histograms being awkward: test the public
       result through a real program instead *)
    ignore counts;
    let _, g, ci, _ =
      analyze
        {|int a; int b; int c; int d; int e;
          int main(int argc, char **argv) {
            int *p; int *q;
            p = &a;
            if (argc > 1) p = &b;
            if (argc > 2) p = &c;
            if (argc > 3) p = &d;
            if (argc > 4) p = &e;
            q = &a;
            *q = 1;
            *p = 2;
            return 0;
          }|}
    in
    let _, writes = Stats.indirect_histograms g (Ci_solver.referenced_locations ci) in
    writes
  in
  (* *q has a constant-propagated address: only *p counts as indirect *)
  Alcotest.(check int) "one indirect write" 1 h.Stats.h_total;
  Alcotest.(check int) "none single-target" 0 h.Stats.h_n.(0);
  Alcotest.(check int) "one with >=4" 1 h.Stats.h_n.(3);
  Alcotest.(check int) "max is 5" 5 h.Stats.h_max

let classification () =
  let _, g, ci, _ =
    analyze
      {|int g1; char buf[4];
        int helper(int *p) { return *p; }
        int main(void) {
          int local;
          int **hp = (int **)malloc(8);
          *hp = &g1;   /* a pointer stored into heap: a heap-path pair */
          return helper(&local) + helper(&g1);
        }|}
  in
  (* paths seen across the solution must cover local, global and heap *)
  let classes = Hashtbl.create 8 in
  Vdg.iter_nodes g (fun n ->
      Ptpair.Set.iter g.Vdg.tbl
        (fun (p : Ptpair.t) ->
          Hashtbl.replace classes (Stats.classify_path p.Ptpair.path) ())
        (Ci_solver.pairs ci n.Vdg.nid));
  Alcotest.(check bool) "offsets" true (Hashtbl.mem classes Stats.Coffset);
  Alcotest.(check bool) "globals" true (Hashtbl.mem classes Stats.Cglobal);
  Alcotest.(check bool) "heap" true (Hashtbl.mem classes Stats.Cheap)

let spurious_zero_when_equal () =
  (* a single-procedure program: CI and CS coincide exactly *)
  let _, _, ci, cs =
    analyze "int x; int main(void) { int *p; p = &x; *p = 1; return x; }"
  in
  Alcotest.(check int) "no spurious pairs" 0 (Stats.spurious_total ci cs)

let callgraph_counts () =
  let _, g, ci, _ =
    analyze
      "int leaf(int n) { return n; }\n\
       int mid(int n) { return leaf(n) + leaf(n + 1); }\n\
       int main(void) { return mid(1) + leaf(9); }"
  in
  let cg = Stats.callgraph_stats ci g in
  Alcotest.(check int) "two called functions" 2 cg.Stats.cg_functions;
  (* leaf: 3 call sites; mid: 1 -> avg 2.0, single-caller 50% *)
  Alcotest.(check (float 0.01)) "avg callers" 2.0 cg.Stats.cg_avg_callers;
  Alcotest.(check (float 0.01)) "single caller pct" 50.0 cg.Stats.cg_single_caller_pct

(* ---- Modref ------------------------------------------------------------------------ *)

let modref_sets () =
  let _, _, ci, _ =
    analyze
      "int a; int b;\n\
       void wr(int *p) { *p = 1; }\n\
       int rd(int *p) { return *p; }\n\
       int main(void) { wr(&a); return rd(&b); }"
  in
  let m = Modref.of_ci ci in
  let strs paths = List.sort compare (List.map Apath.to_string paths) in
  Alcotest.(check (list string)) "wr mods a" [ "a" ] (strs (Modref.mod_set m "wr"));
  Alcotest.(check (list string)) "wr refs nothing" [] (strs (Modref.ref_set m "wr"));
  Alcotest.(check (list string)) "rd refs b" [ "b" ] (strs (Modref.ref_set m "rd"));
  Alcotest.(check (list string)) "main direct mods nothing" []
    (strs (Modref.mod_set m "main"))

let transitive_modref () =
  let _, _, ci, _ =
    analyze
      "int a; int b;\n\
       void inner(int *p) { *p = 1; }\n\
       void outer(void) { inner(&a); inner(&b); }\n\
       int main(void) { outer(); return a; }"
  in
  let m = Modref.of_ci ci in
  let strs paths = List.sort compare (List.map Apath.to_string paths) in
  Alcotest.(check (list string)) "outer transitively mods both" [ "a"; "b" ]
    (strs (Modref.transitive_mod_set m ci "outer"));
  Alcotest.(check (list string)) "main too" [ "a"; "b" ]
    (strs (Modref.transitive_mod_set m ci "main"))

(* ---- Extern summaries ---------------------------------------------------------------- *)

let extern_summary_lookup () =
  let s = Extern_summary.lookup "strcpy" None in
  Alcotest.(check bool) "strcpy returns arg0" true
    (s.Extern_summary.sum_returns = Extern_summary.Ret_arg 0);
  let s = Extern_summary.lookup "fopen" None in
  Alcotest.(check bool) "fopen returns FILE" true
    (s.Extern_summary.sum_returns = Extern_summary.Ret_external "FILE");
  let s = Extern_summary.lookup "qsort" None in
  Alcotest.(check bool) "qsort is higher-order" true
    (s.Extern_summary.sum_calls <> []);
  let s = Extern_summary.lookup "somefn" None in
  Alcotest.(check bool) "unknown scalar extern" true
    (s.Extern_summary.sum_returns = Extern_summary.Ret_nothing);
  let ptr_sig =
    { Ctype.ret = Ctype.Ptr Ctype.int_t; params = []; variadic = false }
  in
  let s = Extern_summary.lookup "mkthing" (Some ptr_sig) in
  Alcotest.(check bool) "unknown pointer extern gets external blob" true
    (s.Extern_summary.sum_returns = Extern_summary.Ret_external "mkthing")

(* ---- Figures ---------------------------------------------------------------------------- *)

let figures_render () =
  (* the figure pipeline runs end to end on one small benchmark *)
  let results = Figures.analyze_suite ~names:[ "allroots" ] () in
  Alcotest.(check int) "one result" 1 (List.length results);
  let non_empty t = String.length (Table.render t) > 0 in
  Alcotest.(check bool) "fig2" true (non_empty (Figures.figure2 results));
  Alcotest.(check bool) "fig3" true (non_empty (Figures.figure3 results));
  Alcotest.(check bool) "fig4" true (non_empty (Figures.figure4 results));
  Alcotest.(check bool) "fig6" true (non_empty (Figures.figure6 results));
  let a, b = Figures.figure7 results in
  Alcotest.(check bool) "fig7" true (non_empty a && non_empty b);
  Alcotest.(check bool) "headline" true (non_empty (Figures.headline results));
  Alcotest.(check bool) "cost" true (non_empty (Figures.cost_table results));
  Alcotest.(check bool) "pruning" true (non_empty (Figures.pruning_table results));
  Alcotest.(check bool) "callgraph" true (non_empty (Figures.callgraph_table results));
  (* and the headline itself *)
  Alcotest.(check int) "allroots reproduces the paper" 0
    (Figures.indirect_delta_count (List.hd results))

let tests =
  [
    Alcotest.test_case "pair set dedup" `Quick pair_set_dedup;
    Alcotest.test_case "pair set order" `Quick pair_set_insertion_order;
    Alcotest.test_case "pair operations" `Quick pair_ops;
    Alcotest.test_case "pair counts by type" `Quick pair_counts_by_type;
    Alcotest.test_case "histogram bucketing" `Quick histogram_bucketing;
    Alcotest.test_case "path classification" `Quick classification;
    Alcotest.test_case "spurious zero" `Quick spurious_zero_when_equal;
    Alcotest.test_case "callgraph stats" `Quick callgraph_counts;
    Alcotest.test_case "modref sets" `Quick modref_sets;
    Alcotest.test_case "transitive modref" `Quick transitive_modref;
    Alcotest.test_case "extern summaries" `Quick extern_summary_lookup;
    Alcotest.test_case "figure assembly" `Slow figures_render;
  ]
