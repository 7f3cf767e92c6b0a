type bench_result = {
  entry : Suite.entry;
  src_lines : int;
  analysis : Engine.analysis;
  prog : Sil.program;
  graph : Vdg.t;
  ci : Ci_solver.t;
  cs : Cs_solver.t;
  ci_seconds : float;
  cs_seconds : float;
}

let analyze_benchmark ?cache (entry : Suite.entry) : bench_result =
  let src = Suite.source entry in
  let input =
    Engine.load_string ~file:(entry.Suite.profile.Profile.name ^ ".c") src
  in
  let analysis =
    match Engine.analyze ?cache Engine.default_request input with
    | Ok { Engine.td_analysis = Some a; _ } -> a
    | Ok _ -> assert false (* an unbudgeted CI run always reaches ci *)
    | Error e -> failwith (Engine.error_message e)
  in
  let cs = Engine.cs analysis in
  let phase name =
    Option.value ~default:0.
      (Telemetry.phase_seconds analysis.Engine.telemetry name)
  in
  {
    entry;
    src_lines = Genc.line_count src;
    analysis;
    prog = analysis.Engine.prog;
    graph = analysis.Engine.graph;
    ci = analysis.Engine.ci;
    cs;
    ci_seconds = phase "ci";
    cs_seconds = phase "cs";
  }

let analyze_suite ?names ?jobs ?cache () =
  let selected =
    match names with
    | None -> Suite.benchmarks
    | Some names ->
      List.filter
        (fun e -> List.mem e.Suite.profile.Profile.name names)
        Suite.benchmarks
  in
  Par_runner.map ?jobs (analyze_benchmark ?cache) selected

let suite_metrics ?cache_stats results =
  Telemetry.suite_to_json ?cache_stats
    (List.map (fun r -> r.analysis.Engine.telemetry) results)

let name_of r = r.entry.Suite.profile.Profile.name

(* ---- Figure 2 ------------------------------------------------------------------ *)

let figure2 results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("source lines", Table.Right);
          ("VDG nodes", Table.Right); ("alias-related outputs", Table.Right);
          ("paper lines", Table.Right); ("paper nodes", Table.Right);
          ("paper outputs", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          name_of r;
          Table.cell_int r.src_lines;
          Table.cell_int (Vdg.n_nodes r.graph);
          Table.cell_int (Stats.alias_related_outputs r.graph);
          Table.cell_int r.entry.Suite.paper_lines;
          Table.cell_int r.entry.Suite.paper_vdg_nodes;
          Table.cell_int r.entry.Suite.paper_alias_outputs;
        ])
    results;
  t

(* ---- Figure 3 ------------------------------------------------------------------ *)

let pair_count_row (pc : Stats.pair_counts) =
  [
    Table.cell_int pc.Stats.pc_pointer;
    Table.cell_int pc.Stats.pc_function;
    Table.cell_int pc.Stats.pc_aggregate;
    Table.cell_int pc.Stats.pc_store;
    Table.cell_int pc.Stats.pc_total;
  ]

let figure3 results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("pointer", Table.Right); ("function", Table.Right);
          ("aggregate", Table.Right); ("store", Table.Right); ("total", Table.Right);
        ]
  in
  let total = ref { Stats.pc_pointer = 0; pc_function = 0; pc_aggregate = 0; pc_store = 0; pc_total = 0 } in
  List.iter
    (fun r ->
      let pc = Stats.ci_pair_counts r.ci in
      total :=
        {
          Stats.pc_pointer = !total.Stats.pc_pointer + pc.Stats.pc_pointer;
          pc_function = !total.Stats.pc_function + pc.Stats.pc_function;
          pc_aggregate = !total.Stats.pc_aggregate + pc.Stats.pc_aggregate;
          pc_store = !total.Stats.pc_store + pc.Stats.pc_store;
          pc_total = !total.Stats.pc_total + pc.Stats.pc_total;
        };
      Table.add_row t (name_of r :: pair_count_row pc))
    results;
  Table.add_rule t;
  Table.add_row t ("TOTAL" :: pair_count_row !total);
  t

(* ---- Figure 4 ------------------------------------------------------------------ *)

let figure4 results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("type", Table.Left); ("total", Table.Right);
          ("1", Table.Right); ("2", Table.Right); ("3", Table.Right);
          (">=4", Table.Right); ("null-only", Table.Right);
          ("max", Table.Right); ("avg", Table.Right);
        ]
  in
  let sum_reads = ref [] and sum_writes = ref [] in
  let add_rows r =
    let reads, writes =
      Stats.indirect_histograms r.graph (Ci_solver.referenced_locations r.ci)
    in
    let row kind (h : Stats.histogram) =
      Table.add_row t
        [
          name_of r; kind;
          Table.cell_int h.Stats.h_total;
          Table.cell_int h.Stats.h_n.(0);
          Table.cell_int h.Stats.h_n.(1);
          Table.cell_int h.Stats.h_n.(2);
          Table.cell_int h.Stats.h_n.(3);
          Table.cell_int h.Stats.h_zero;
          Table.cell_int h.Stats.h_max;
          Table.cell_float h.Stats.h_avg;
        ]
    in
    row "read" reads;
    row "write" writes;
    sum_reads := reads :: !sum_reads;
    sum_writes := writes :: !sum_writes
  in
  List.iter add_rows results;
  let merge hs =
    let total = List.fold_left (fun a h -> a + h.Stats.h_total) 0 hs in
    let zero = List.fold_left (fun a h -> a + h.Stats.h_zero) 0 hs in
    let n = Array.init 4 (fun i -> List.fold_left (fun a h -> a + h.Stats.h_n.(i)) 0 hs) in
    let maxi = List.fold_left (fun a h -> max a h.Stats.h_max) 0 hs in
    let weighted =
      List.fold_left
        (fun a h -> a +. (h.Stats.h_avg *. float_of_int (h.Stats.h_total - h.Stats.h_zero)))
        0. hs
    in
    let nonzero = total - zero in
    {
      Stats.h_total = total; h_zero = zero; h_n = n; h_max = maxi;
      h_avg = (if nonzero = 0 then 0. else weighted /. float_of_int nonzero);
    }
  in
  Table.add_rule t;
  let totals kind (h : Stats.histogram) =
    Table.add_row t
      [
        "TOTAL"; kind;
        Table.cell_int h.Stats.h_total;
        Table.cell_int h.Stats.h_n.(0);
        Table.cell_int h.Stats.h_n.(1);
        Table.cell_int h.Stats.h_n.(2);
        Table.cell_int h.Stats.h_n.(3);
        Table.cell_int h.Stats.h_zero;
        Table.cell_int h.Stats.h_max;
        Table.cell_float h.Stats.h_avg;
      ]
  in
  totals "read" (merge !sum_reads);
  totals "write" (merge !sum_writes);
  t

(* ---- Figure 6 ------------------------------------------------------------------ *)

let figure6 results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("pointer", Table.Right); ("function", Table.Right);
          ("aggregate", Table.Right); ("store", Table.Right); ("total", Table.Right);
          ("total (insensitive)", Table.Right); ("percent spurious", Table.Right);
        ]
  in
  let grand_cs = ref 0 and grand_ci = ref 0 in
  List.iter
    (fun r ->
      let cs_pc = Stats.cs_pair_counts r.cs r.graph in
      let ci_pc = Stats.ci_pair_counts r.ci in
      grand_cs := !grand_cs + cs_pc.Stats.pc_total;
      grand_ci := !grand_ci + ci_pc.Stats.pc_total;
      let spurious_pct =
        if ci_pc.Stats.pc_total = 0 then 0.
        else
          float_of_int (ci_pc.Stats.pc_total - cs_pc.Stats.pc_total)
          /. float_of_int ci_pc.Stats.pc_total
      in
      Table.add_row t
        ((name_of r
         :: List.filteri (fun i _ -> i < 5) (pair_count_row cs_pc))
        @ [ Table.cell_int ci_pc.Stats.pc_total; Table.cell_pct spurious_pct ]))
    results;
  Table.add_rule t;
  let pct =
    if !grand_ci = 0 then 0.
    else float_of_int (!grand_ci - !grand_cs) /. float_of_int !grand_ci
  in
  Table.add_row t
    [
      "TOTAL"; ""; ""; ""; ""; Table.cell_int !grand_cs; Table.cell_int !grand_ci;
      Table.cell_pct pct;
    ];
  t

(* ---- Figure 7 ------------------------------------------------------------------ *)

let breakdown_table title (bd : Stats.breakdown) =
  let t =
    Table.create
      ~headers:
        [
          (title, Table.Left); ("-> function", Table.Right); ("-> local", Table.Right);
          ("-> global", Table.Right); ("-> heap", Table.Right);
        ]
  in
  let row_name = [| "offset path"; "local path"; "global path"; "heap path" |] in
  Array.iteri
    (fun i row ->
      Table.add_row t
        (row_name.(i)
        :: Array.to_list
             (Array.map
                (fun c ->
                  if bd.Stats.bd_total = 0 then "0.0%"
                  else Table.cell_pct (float_of_int c /. float_of_int bd.Stats.bd_total))
                row)))
    bd.Stats.bd_counts;
  t

let merge_breakdowns bds =
  let counts = Array.init 4 (fun _ -> Array.make 4 0) in
  let total = ref 0 in
  List.iter
    (fun (bd : Stats.breakdown) ->
      total := !total + bd.Stats.bd_total;
      Array.iteri
        (fun i row -> Array.iteri (fun j c -> counts.(i).(j) <- counts.(i).(j) + c) row)
        bd.Stats.bd_counts)
    bds;
  { Stats.bd_counts = counts; bd_total = !total }

let figure7 results =
  let all = merge_breakdowns (List.map (fun r -> Stats.ci_breakdown r.ci) results) in
  let spurious =
    merge_breakdowns (List.map (fun r -> Stats.spurious_breakdown r.ci r.cs) results)
  in
  ( breakdown_table "all CI pairs" all,
    breakdown_table "spurious pairs only" spurious )

(* ---- headline / cost / pruning / call graph -------------------------------------- *)

let indirect_delta_count r =
  List.fold_left
    (fun acc ((n : Vdg.node), _) ->
      let a = List.sort Apath.compare (Ci_solver.referenced_locations r.ci n.Vdg.nid) in
      let b = List.sort Apath.compare (Cs_solver.referenced_locations r.cs n.Vdg.nid) in
      if List.equal Apath.equal a b then acc else acc + 1)
    0
    (Vdg.indirect_memops r.graph)

let headline results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("indirect ops", Table.Right);
          ("ops where CS refines CI", Table.Right); ("verdict", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      let n_ops = List.length (Vdg.indirect_memops r.graph) in
      let delta = indirect_delta_count r in
      Table.add_row t
        [
          name_of r; Table.cell_int n_ops; Table.cell_int delta;
          (if delta = 0 then "identical (paper reproduced)" else "CS more precise");
        ])
    results;
  t

(* the hash-consed set layer behind both solvers: how much meet work the
   memo caches absorbed, and what the interned universe cost in memory *)
let memo_table results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left);
          ("CS meets", Table.Right); ("stale skips", Table.Right);
          ("cache hits", Table.Right); ("cache misses", Table.Right);
          ("hit rate", Table.Right);
          ("interned sets", Table.Right); ("peak table (KB)", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      let s = Cs_solver.ptset_stats r.cs in
      let hits = s.Ptset.st_cache_hits and misses = s.Ptset.st_cache_misses in
      Table.add_row t
        [
          name_of r;
          Table.cell_int (Cs_solver.flow_out_count r.cs);
          Table.cell_int (Cs_solver.worklist_stale_skips r.cs);
          Table.cell_int hits;
          Table.cell_int misses;
          Table.cell_float ~decimals:1
            (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
          Table.cell_int s.Ptset.st_sets;
          Table.cell_int (s.Ptset.st_peak_bytes / 1024);
        ])
    results;
  t

let cost_table results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left);
          ("CI transfers", Table.Right); ("CS transfers", Table.Right);
          ("ratio", Table.Right);
          ("CI meets", Table.Right); ("CS meets", Table.Right); ("ratio", Table.Right);
          ("CI time (s)", Table.Right); ("CS time (s)", Table.Right);
          ("slowdown", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      let cit = Ci_solver.flow_in_count r.ci and cst = Cs_solver.flow_in_count r.cs in
      let cim = Ci_solver.flow_out_count r.ci and csm = Cs_solver.flow_out_count r.cs in
      Table.add_row t
        [
          name_of r;
          Table.cell_int cit; Table.cell_int cst;
          Table.cell_float (float_of_int cst /. float_of_int (max 1 cit));
          Table.cell_int cim; Table.cell_int csm;
          Table.cell_float (float_of_int csm /. float_of_int (max 1 cim));
          Table.cell_float ~decimals:3 r.ci_seconds;
          Table.cell_float ~decimals:3 r.cs_seconds;
          Table.cell_float (r.cs_seconds /. Float.max 1e-6 r.ci_seconds);
        ])
    results;
  t

let pruning_table results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("indirect ops", Table.Right);
          ("single-location (CI)", Table.Right); ("pct", Table.Right);
          ("pointer-carrying ops", Table.Right);
          ("needing assumptions", Table.Right); ("pct of all", Table.Right);
        ]
  in
  let tot = ref (0, 0, 0, 0) in
  List.iter
    (fun r ->
      let p = Stats.pruning_stats r.ci in
      let a, b, c, d = !tot in
      tot := (a + p.Stats.pr_ops, b + p.Stats.pr_single, c + p.Stats.pr_ptr_ops, d + p.Stats.pr_ptr_multi);
      Table.add_row t
        [
          name_of r;
          Table.cell_int p.Stats.pr_ops;
          Table.cell_int p.Stats.pr_single;
          Table.cell_pct
            (float_of_int p.Stats.pr_single /. float_of_int (max 1 p.Stats.pr_ops));
          Table.cell_int p.Stats.pr_ptr_ops;
          Table.cell_int p.Stats.pr_ptr_multi;
          Table.cell_pct
            (float_of_int p.Stats.pr_ptr_multi /. float_of_int (max 1 p.Stats.pr_ops));
        ])
    results;
  Table.add_rule t;
  let a, b, c, d = !tot in
  Table.add_row t
    [
      "TOTAL"; Table.cell_int a; Table.cell_int b;
      Table.cell_pct (float_of_int b /. float_of_int (max 1 a));
      Table.cell_int c; Table.cell_int d;
      Table.cell_pct (float_of_int d /. float_of_int (max 1 a));
    ];
  t

let callgraph_table results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("called functions", Table.Right);
          ("avg callers", Table.Right); ("single-caller", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      let cg = Stats.callgraph_stats r.ci r.graph in
      Table.add_row t
        [
          name_of r;
          Table.cell_int cg.Stats.cg_functions;
          Table.cell_float cg.Stats.cg_avg_callers;
          Printf.sprintf "%.0f%%" cg.Stats.cg_single_caller_pct;
        ])
    results;
  t

(* ---- the precision ladder --------------------------------------------------------- *)

(* How much precision each rung of the degradation ladder gives up:
   the fraction of indirect-operation pairs judged may-alias at every
   tier, per benchmark.  CS and CI answer at VDG nodes; the baselines
   are line-keyed and field-insensitive, so their verdict for a pair is
   whether the two lines' abstract-location sets intersect (the same
   rule {!Engine.line_may_alias} applies at degraded tiers). *)
let ladder_table results =
  let t =
    Table.create
      ~headers:
        [
          ("name", Table.Left); ("node pairs", Table.Right); ("cs", Table.Right);
          ("ci", Table.Right); ("andersen", Table.Right);
          ("steensgaard", Table.Right);
        ]
  in
  let rate hits pairs = float_of_int hits /. float_of_int (max 1 pairs) in
  let pairs_over items verdict =
    let arr = Array.of_list items in
    let n = Array.length arr in
    let count = ref 0 and hits = ref 0 in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        incr count;
        if verdict arr.(i) arr.(j) then incr hits
      done
    done;
    (!count, !hits)
  in
  let totals = Array.make 4 0 and universes = Array.make 2 0 in
  List.iter
    (fun r ->
      let ops = Vdg.indirect_memops r.graph in
      let nodes = List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid) ops in
      let lines =
        List.sort_uniq compare
          (List.filter_map
             (fun ((n : Vdg.node), _) ->
               Option.map
                 (fun (l : Srcloc.t) -> l.Srcloc.line)
                 (Vdg.loc_of r.graph n.Vdg.nid))
             ops)
      in
      let anders = Andersen.analyze r.prog in
      let steens = Steensgaard.analyze r.prog in
      (* resolve each op/line to its target set once; pairwise checks
         then stay cheap even on the quadratically many pairs *)
      let cs_locs = List.map (Query.locations (Query.cs_view r.ci r.cs)) nodes in
      let ci_locs = List.map (Query.locations (Query.ci_view r.ci)) nodes in
      let path_verdict a b = a <> [] && b <> [] && Query.paths_may_overlap a b in
      let overlap xs ys =
        List.exists (fun x -> List.exists (Absloc.equal x) ys) xs
      in
      let node_pairs, cs_hits = pairs_over cs_locs path_verdict in
      let _, ci_hits = pairs_over ci_locs path_verdict in
      let line_pairs, and_hits =
        pairs_over (List.map (Andersen.memops_on_line anders) lines) overlap
      in
      let _, st_hits =
        pairs_over (List.map (Steensgaard.memops_on_line steens) lines) overlap
      in
      List.iteri
        (fun i h -> totals.(i) <- totals.(i) + h)
        [ cs_hits; ci_hits; and_hits; st_hits ];
      universes.(0) <- universes.(0) + node_pairs;
      universes.(1) <- universes.(1) + line_pairs;
      Table.add_row t
        [
          name_of r; Table.cell_int node_pairs;
          Table.cell_pct (rate cs_hits node_pairs);
          Table.cell_pct (rate ci_hits node_pairs);
          Table.cell_pct (rate and_hits line_pairs);
          Table.cell_pct (rate st_hits line_pairs);
        ])
    results;
  Table.add_rule t;
  Table.add_row t
    [
      "TOTAL"; Table.cell_int universes.(0);
      Table.cell_pct (rate totals.(0) universes.(0));
      Table.cell_pct (rate totals.(1) universes.(0));
      Table.cell_pct (rate totals.(2) universes.(1));
      Table.cell_pct (rate totals.(3) universes.(1));
    ];
  t

(* ---- checker suite -------------------------------------------------------------- *)

let lint_report r = Lint.run ~compare_cs:true r.analysis

let checkers_table results =
  let checker_names = Registry.names () in
  let t =
    Table.create
      ~headers:
        (("name", Table.Left)
        :: List.map (fun n -> (n, Table.Right)) checker_names
        @ [ ("total", Table.Right); ("CI-vs-CS delta", Table.Right) ])
  in
  let totals = Hashtbl.create 8 in
  let grand = ref 0 and grand_delta = ref 0 in
  List.iter
    (fun r ->
      let report = lint_report r in
      let counts =
        List.map (fun n -> Lint.count_for report n) checker_names
      in
      let total = List.fold_left ( + ) 0 counts in
      let delta = Lint.delta_count report in
      List.iter2
        (fun n c ->
          Hashtbl.replace totals n
            (c + Option.value ~default:0 (Hashtbl.find_opt totals n)))
        checker_names counts;
      grand := !grand + total;
      grand_delta := !grand_delta + delta;
      Table.add_row t
        (name_of r
         :: List.map Table.cell_int counts
        @ [ Table.cell_int total; Table.cell_int delta ]))
    results;
  Table.add_row t
    ("TOTAL"
     :: List.map
          (fun n -> Table.cell_int (Option.value ~default:0 (Hashtbl.find_opt totals n)))
          checker_names
    @ [ Table.cell_int !grand; Table.cell_int !grand_delta ]);
  t
