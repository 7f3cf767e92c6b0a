(* The Engine facade: equivalence with direct solver invocation, result
   caching (memory and disk layers), parallel suite runs, and the
   metrics JSON surface. *)

let quickstart_src =
  {|
typedef struct node { int val; struct node *next; } node_t;

int counter;
int *active;

node_t *push(node_t *head, int v) {
  node_t *n = (node_t *)malloc(sizeof(node_t));
  n->val = v;
  n->next = head;
  return n;
}

int total(node_t *l) {
  int s = 0;
  while (l) { s += l->val; l = l->next; }
  return s;
}

int main(int argc, char **argv) {
  node_t *stack = 0;
  int i;
  active = &counter;
  for (i = 0; i < 4; i++) stack = push(stack, i);
  *active = total(stack);
  return counter;
}
|}

let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "alias_engine_cache_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* ---- (a) engine results = direct solver invocation ------------------------------- *)

let test_matches_direct () =
  let a = Test_util.analysis (Engine.load_string ~file:"quickstart.c" quickstart_src) in
  let cs = Engine.cs a in
  (* direct, hand-rolled pipeline *)
  let prog = Norm.compile ~file:"quickstart.c" quickstart_src in
  let g = Vdg_build.build prog in
  let ci' = Ci_solver.solve g in
  let cs' = Cs_solver.solve g ~ci:ci' in
  Alcotest.(check int) "VDG node count" (Vdg.n_nodes g) (Vdg.n_nodes a.Engine.graph);
  Alcotest.(check int)
    "CI pair total"
    (Stats.ci_pair_counts ci').Stats.pc_total
    (Stats.ci_pair_counts a.Engine.ci).Stats.pc_total;
  Alcotest.(check int)
    "CS pair total"
    (Stats.cs_pair_counts cs' g).Stats.pc_total
    (Stats.cs_pair_counts cs a.Engine.graph).Stats.pc_total;
  (* identical node numbering (same pipeline), so location sets must
     agree op by op *)
  List.iter2
    (fun ((n : Vdg.node), _) ((n' : Vdg.node), _) ->
      let show locs = String.concat "," (List.map Apath.to_string locs) in
      Alcotest.(check string)
        (Printf.sprintf "CI locations at node %d" n.Vdg.nid)
        (show (Ci_solver.referenced_locations ci' n'.Vdg.nid))
        (show (Ci_solver.referenced_locations a.Engine.ci n.Vdg.nid));
      Alcotest.(check string)
        (Printf.sprintf "CS locations at node %d" n.Vdg.nid)
        (show (Cs_solver.referenced_locations cs' n'.Vdg.nid))
        (show (Cs_solver.referenced_locations cs n.Vdg.nid)))
    (Vdg.indirect_memops a.Engine.graph)
    (Vdg.indirect_memops g)

(* ---- (b) cache hits return identical results ------------------------------------- *)

let pc_to_list (pc : Stats.pair_counts) =
  [ pc.Stats.pc_pointer; pc.Stats.pc_function; pc.Stats.pc_aggregate;
    pc.Stats.pc_store; pc.Stats.pc_total ]

(* entries of another format version are unreachable (the version is
   part of every key), so [create] reclaims them *)
let test_cache_purges_old_formats () =
  let dir = fresh_cache_dir () in
  let input = Engine.load_string ~file:"quickstart.c" quickstart_src in
  ignore (Test_util.analysis ~cache:(Engine_cache.create dir) input);
  let planted = Filename.concat dir "0123456789abcdef.bin" in
  Out_channel.with_open_bin planted (fun oc ->
      output_string oc "alias-engine-cache/10";
      Marshal.to_channel oc [ 1; 2; 3 ] []);
  let cache = Engine_cache.create dir in
  Alcotest.(check bool) "old-format entry deleted" false (Sys.file_exists planted);
  Alcotest.(check int) "counted as purged" 1 (Engine_cache.stats cache).Engine_cache.purged;
  Alcotest.(check int) "current entry kept" 1 (List.length (Engine_cache.keys_on_disk cache));
  let again = Test_util.analysis ~cache input in
  Alcotest.(check bool)
    "current entry still hits" true
    (again.Engine.telemetry.Telemetry.t_cache = Telemetry.Disk_hit)

let test_cache_roundtrip () =
  let dir = fresh_cache_dir () in
  let input = Engine.load_string ~file:"quickstart.c" quickstart_src in
  let cache = Engine_cache.create dir in
  let cold = Test_util.analysis ~cache input in
  let cold_cs = Engine.cs cold in
  Alcotest.(check bool)
    "first run is a miss"
    true
    (cold.Engine.telemetry.Telemetry.t_cache = Telemetry.Cold);
  (* same cache object: the cache keeps nothing in memory, so this too
     reads the disk snapshot *)
  let warm = Test_util.analysis ~cache input in
  Alcotest.(check bool)
    "second run on the same cache is a disk hit"
    true
    (warm.Engine.telemetry.Telemetry.t_cache = Telemetry.Disk_hit);
  Alcotest.(check (list int))
    "same-cache hit: identical CI pair counts"
    (pc_to_list (Stats.ci_pair_counts cold.Engine.ci))
    (pc_to_list (Stats.ci_pair_counts warm.Engine.ci));
  Alcotest.(check (list int))
    "same-cache hit: identical CS pair counts"
    (pc_to_list (Stats.cs_pair_counts cold_cs cold.Engine.graph))
    (pc_to_list (Stats.cs_pair_counts (Engine.cs warm) warm.Engine.graph));
  (* fresh cache object over the same directory: disk hit, as a second
     process would see it *)
  let cache2 = Engine_cache.create dir in
  let disk = Test_util.analysis ~cache:cache2 input in
  Alcotest.(check bool)
    "fresh cache over same dir is a disk hit"
    true
    (disk.Engine.telemetry.Telemetry.t_cache = Telemetry.Disk_hit);
  Alcotest.(check (list int))
    "disk hit: identical CI pair counts"
    (pc_to_list (Stats.ci_pair_counts cold.Engine.ci))
    (pc_to_list (Stats.ci_pair_counts disk.Engine.ci));
  let disk_cs = Engine.cs disk in
  Alcotest.(check (list int))
    "disk hit: identical CS pair counts"
    (pc_to_list (Stats.cs_pair_counts cold_cs cold.Engine.graph))
    (pc_to_list (Stats.cs_pair_counts disk_cs disk.Engine.graph));
  Alcotest.(check bool)
    "disk hit carried the already-solved CS solution"
    true (Engine.cs_forced disk);
  (* a different config must key differently *)
  let weak =
    {
      Engine.default_config with
      Engine.ci_config =
        { Ci_solver.default_config with Ci_solver.strong_updates = false };
    }
  in
  let other = Test_util.analysis ~config:weak ~cache:cache2 input in
  Alcotest.(check bool)
    "different config misses"
    true
    (other.Engine.telemetry.Telemetry.t_cache = Telemetry.Cold)

(* ---- (c) parallel suite = sequential suite --------------------------------------- *)

let suite_fingerprint results =
  List.map
    (fun (r : Figures.bench_result) ->
      ( r.Figures.entry.Suite.profile.Profile.name,
        Vdg.n_nodes r.Figures.graph,
        pc_to_list (Stats.ci_pair_counts r.Figures.ci),
        pc_to_list (Stats.cs_pair_counts r.Figures.cs r.Figures.graph),
        Ci_solver.flow_out_count r.Figures.ci ))
    results

let test_parallel_suite () =
  let names = [ "allroots"; "backprop"; "span" ] in
  let seq = Figures.analyze_suite ~names () in
  let par = Figures.analyze_suite ~names ~jobs:4 () in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun (n, nodes, ci, cs, meets) (n', nodes', ci', cs', meets') ->
      Alcotest.(check string) "order preserved" n n';
      Alcotest.(check int) (n ^ ": nodes") nodes nodes';
      Alcotest.(check (list int)) (n ^ ": CI pairs") ci ci';
      Alcotest.(check (list int)) (n ^ ": CS pairs") cs cs';
      Alcotest.(check int) (n ^ ": CI meets") meets meets')
    (suite_fingerprint seq) (suite_fingerprint par)

(* ---- (d) metrics JSON ------------------------------------------------------------- *)

let test_metrics_json () =
  let names = [ "allroots" ] in
  let results = Figures.analyze_suite ~names () in
  let json = Figures.suite_metrics results in
  (* must survive a print/parse round trip *)
  let parsed = Ejson.of_string (Ejson.to_string json) in
  Alcotest.(check (option string))
    "schema version" (Some "alias-engine-metrics/5")
    (match Ejson.member "schema" parsed with
    | Some (Ejson.String v) -> Some v
    | _ -> None);
  let benchmarks =
    match Ejson.member "benchmarks" parsed with
    | Some (Ejson.List l) -> l
    | _ -> Alcotest.fail "missing benchmarks list"
  in
  Alcotest.(check int) "one benchmark entry" 1 (List.length benchmarks);
  let entry = List.hd benchmarks in
  let phases =
    match Ejson.member "phases" entry with
    | Some p -> p
    | None -> Alcotest.fail "missing phases"
  in
  (* phase presence is path-dependent ("dyck" replaces "ci"/"cs" on dyck
     sessions, "incr" replaces "ci" on a splice): any recorded phase must
     be a well-known name with a non-negative float, and an exhaustive
     suite run records them all except those two *)
  List.iter
    (fun name ->
      match Ejson.member name phases with
      | Some (Ejson.Float s) ->
        if s < 0. then Alcotest.fail (name ^ ": negative phase time")
      | Some _ -> Alcotest.fail (name ^ ": phase time not a float")
      | None ->
        if name <> "dyck" && name <> "incr" then
          Alcotest.fail ("missing phase " ^ name))
    Telemetry.phase_names;
  (match phases with
  | Ejson.Assoc fields ->
    List.iter
      (fun (name, _) ->
        if not (List.mem name Telemetry.phase_names) then
          Alcotest.fail ("unknown phase " ^ name))
      fields
  | _ -> Alcotest.fail "phases must be an object");
  let counters =
    match Ejson.member "counters" entry with
    | Some c -> c
    | None -> Alcotest.fail "missing counters"
  in
  (* /4: the sharded solve's par_* counters are gone *)
  (match counters with
  | Ejson.Assoc fields ->
    List.iter
      (fun (key, _) ->
        if String.length key >= 4 && String.sub key 0 4 = "par_" then
          Alcotest.fail ("unexpected counter " ^ key))
      fields
  | _ -> Alcotest.fail "counters must be an object");
  List.iter
    (fun key ->
      match Ejson.member key counters with
      | Some (Ejson.Int n) ->
        if n < 0 then Alcotest.fail (key ^ ": negative counter")
      | _ -> Alcotest.fail ("missing counter " ^ key))
    [
      "functions"; "vdg_nodes"; "alias_outputs";
      "ci_flow_in"; "ci_flow_out"; "ci_worklist_pushes"; "ci_worklist_pops";
      "ci_pairs"; "cs_flow_in"; "cs_flow_out"; "cs_worklist_pushes";
      "cs_worklist_pops"; "cs_pairs";
    ];
  (match Ejson.member "totals" parsed with
  | Some totals ->
    List.iter
      (fun key ->
        if Ejson.member key totals = None then
          Alcotest.fail ("missing total " ^ key))
      [ "runs"; "cache_misses"; "cache_disk_hits"; "ci_pairs"; "cs_pairs" ]
  | None -> Alcotest.fail "missing totals");
  (* at fixpoint, the worklist drains completely *)
  let r = List.hd results in
  Alcotest.(check int)
    "CI worklist drained"
    (Ci_solver.worklist_pushes r.Figures.ci)
    (Ci_solver.worklist_pops r.Figures.ci)

(* ---- Ejson round trips -------------------------------------------------------------- *)

let test_ejson_roundtrip () =
  let v =
    Ejson.Assoc
      [
        ("s", Ejson.String "a \"quoted\"\nline");
        ("i", Ejson.Int (-42));
        ("f", Ejson.Float 1.5);
        ("b", Ejson.Bool true);
        ("n", Ejson.Null);
        ("l", Ejson.List [ Ejson.Int 1; Ejson.Assoc []; Ejson.List [] ]);
      ]
  in
  Alcotest.(check bool)
    "roundtrip equal" true
    (Ejson.of_string (Ejson.to_string v) = v);
  (match Ejson.of_string "  { \"x\" : [ 1 , 2.5 , null ] }  " with
  | Ejson.Assoc [ ("x", Ejson.List [ Ejson.Int 1; Ejson.Float 2.5; Ejson.Null ]) ] ->
    ()
  | _ -> Alcotest.fail "whitespace-tolerant parse");
  (match Ejson.of_string "{\"x\": 1" with
  | exception Ejson.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated input must not parse")

let tests =
  [
    Alcotest.test_case "engine = direct pipeline" `Quick test_matches_direct;
    Alcotest.test_case "cache roundtrip (memory + disk)" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache create purges other formats" `Quick
      test_cache_purges_old_formats;
    Alcotest.test_case "parallel suite = sequential" `Slow test_parallel_suite;
    Alcotest.test_case "metrics JSON schema" `Quick test_metrics_json;
    Alcotest.test_case "ejson roundtrip" `Quick test_ejson_roundtrip;
  ]
