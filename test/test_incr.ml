(* Incremental re-analysis tests: per-procedure digest locality, the
   dependency condensation, and the differential oracle — after every
   scripted edit, an incremental Engine.analyze must yield a solution
   digest byte-identical to a from-scratch solve of the edited source. *)

let analysis_of ?file src = Test_util.analysis (Engine.load_string ?file src)

(* an incremental request against [prev] *)
let incremental prev = { Engine.default_request with prev = Some prev }

(* first-occurrence textual replacement — the scripted-edit primitive *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  | None -> Alcotest.failf "edit pattern not found: %s" sub

(* ---- procedure digests ----------------------------------------------------------- *)

let digests_of src =
  Proc_summary.digests (Norm.compile ~file:"dig.c" src)

let base_two_procs = {|
int g;
int *id(int *p) { return p; }
int main(void) { int *x; x = id(&g); return *x; }
|}

let test_digest_locality () =
  (* editing one body leaves every other procedure's digest unchanged *)
  let before = digests_of base_two_procs in
  let after =
    digests_of
      {|
int g;
int *id(int *p) { int *q; q = p; return q; }
int main(void) { int *x; x = id(&g); return *x; }
|}
  in
  Alcotest.(check bool)
    "id digest changed" true
    (List.assoc "id" before <> List.assoc "id" after);
  Alcotest.(check string)
    "main digest unchanged"
    (List.assoc "main" before) (List.assoc "main" after);
  (match
     ( List.assoc_opt Sil.global_init_name before,
       List.assoc_opt Sil.global_init_name after )
   with
  | Some d, Some d' ->
    Alcotest.(check string) "__global_init digest unchanged" d d'
  | None, None -> ()
  | _ -> Alcotest.fail "__global_init presence changed")

let test_digest_shift_insensitive () =
  (* a new function ahead of the others shifts every program-wide id
     (vids, temp numbers, alloc sites) — digests must not notice *)
  let before = digests_of base_two_procs in
  let after =
    digests_of
      {|
int g;
int noise(void) { int *t; t = &g; return *t; }
int *id(int *p) { return p; }
int main(void) { int *x; x = id(&g); return *x; }
|}
  in
  Alcotest.(check string)
    "id digest survives vid shift"
    (List.assoc "id" before) (List.assoc "id" after);
  Alcotest.(check string)
    "main digest survives vid shift"
    (List.assoc "main" before) (List.assoc "main" after)

let test_program_digest () =
  let pd src = Proc_summary.program_digest (Norm.compile ~file:"dig.c" src) in
  let base = "struct s { int *f; }; int main(void) { return 0; }" in
  let field = "struct s { int *f; int *h; }; int main(void) { return 0; }" in
  let body = "struct s { int *f; }; int main(void) { int x; x = 0; return x; }" in
  Alcotest.(check bool) "field change alters program digest" true (pd base <> pd field);
  Alcotest.(check string) "body change does not" (pd base) (pd body)

(* ---- dependency graph ------------------------------------------------------------ *)

let test_dep_graph_sccs () =
  let prog =
    Norm.compile ~file:"dep.c"
      {|
int g;
int even(int n);
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int leaf(void) { return 1; }
int main(void) { g = leaf(); return odd(g); }
|}
  in
  let d = Dep_graph.build prog ~extra:[] in
  let scc name =
    match Dep_graph.scc_of d name with
    | Some s -> s
    | None -> Alcotest.failf "no scc for %s" name
  in
  Alcotest.(check bool)
    "mutual recursion shares an SCC" true (scc "odd" = scc "even");
  Alcotest.(check bool)
    "leaf is its own SCC" true (scc "leaf" <> scc "main");
  (* topo is bottom-up: callees' SCCs come before callers' *)
  let order = Dep_graph.topo_sccs d in
  let rank s =
    match List.mapi (fun i x -> (x, i)) order |> List.assoc_opt s with
    | Some r -> r
    | None -> Alcotest.failf "scc %d missing from topo" s
  in
  Alcotest.(check bool) "odd before main" true (rank (scc "odd") < rank (scc "main"));
  Alcotest.(check bool) "leaf before main" true (rank (scc "leaf") < rank (scc "main"));
  let deps = Dep_graph.dependents_closure d [ "leaf" ] in
  Alcotest.(check bool) "main depends on leaf" true (List.mem "main" deps);
  Alcotest.(check bool) "odd does not" false (List.mem "odd" deps)

(* ---- the differential oracle ----------------------------------------------------- *)

(* Replay [edits] (full new sources) over [base]: each step runs
   incrementally against the previous snapshot and must digest-equal a
   cold solve of the same text.  Returns the per-step stats. *)
let replay ?(file = "replay.c") base edits =
  let a0 = analysis_of ~file base in
  let prev = ref (Engine.incr_snapshot a0) in
  List.map
    (fun src ->
      let input = Engine.load_string ~file src in
      match Engine.analyze (incremental !prev) input with
      | Error e -> Alcotest.failf "incremental run: %s" (Engine.error_message e)
      | Ok { Engine.td_analysis = None; _ } | Ok { Engine.td_incr = None; _ } ->
        Alcotest.fail "incremental run: no spliced analysis"
      | Ok { Engine.td_analysis = Some a; td_incr = Some outcome; _ } ->
        let cold = analysis_of ~file src in
        Alcotest.(check string)
          "incremental digest = cold digest"
          (Solution_digest.digest cold) (Solution_digest.digest a);
        prev := Engine.incr_snapshot a;
        outcome.Incr_engine.o_stats)
    edits

let crafted_base = {|
int g1; int g2; int *cell;
int *id(int *p) { return p; }
int *pick(int *a, int *b) { return a; }
void stash(int **c, int *v) { *c = v; }
int spare(int *q) { cell = q; return 0; }
int main(void) { int *x; int *y;
  x = id(&g1);
  y = pick(&g1, &g2);
  stash(&y, &g2);
  return *x + *y; }
|}

let test_noop_edit () =
  (* comment/whitespace edits change no digest: nothing re-solves *)
  let stats =
    replay crafted_base
      [ "/* touched */" ^ crafted_base; crafted_base ^ "\n\n/* again */\n" ]
  in
  List.iter
    (fun (s : Incr_engine.stats) ->
      Alcotest.(check int) "nothing dirty" 0 s.Incr_engine.st_dirty_initial;
      Alcotest.(check int) "nothing re-solved" 0 s.Incr_engine.st_resolved;
      Alcotest.(check int)
        "everything reused" s.Incr_engine.st_procs_total s.Incr_engine.st_reused;
      Alcotest.(check bool) "no fallback" false s.Incr_engine.st_full_fallback)
    stats

let test_body_edit () =
  (* flipping pick's result changes main's facts but not id's *)
  let edited = replace ~sub:"{ return a; }" ~by:"{ return b; }" crafted_base in
  match replay crafted_base [ edited ] with
  | [ s ] ->
    Alcotest.(check int) "one digest changed" 1 s.Incr_engine.st_dirty_initial;
    Alcotest.(check bool)
      "some procedures reused" true (s.Incr_engine.st_reused > 0)
  | _ -> assert false

let test_call_edge_add_remove () =
  (* spare() starts uncalled; an edit wires it in, a second unwires it *)
  let with_call =
    replace ~sub:"return *x + *y;" ~by:"spare(&g1); return *x + *y;"
      crafted_base
  in
  ignore (replay crafted_base [ with_call; crafted_base ])

let test_function_add_remove () =
  let extra =
    crafted_base ^ "\nint probe(int *r) { cell = r; return *r; }\n"
  in
  ignore (replay crafted_base [ extra; crafted_base ])

let test_indirect_call_edit () =
  (* editing the target set of a function pointer: the discovered (not
     static) call edge must dirty the right procedures *)
  let base = {|
int g1; int g2;
int fst(int *p) { return *p; }
int snd(int *p) { g2 = *p; return g2; }
int main(void) { int (*fp)(int *); fp = &fst; return fp(&g1); }
|}
  in
  let edited = replace ~sub:"fp = &fst;" ~by:"fp = &snd;" base in
  ignore (replay base [ edited; base ])

let test_chain_reuse () =
  (* a deep call chain edited at the leaf: everything re-solves (the
     change propagates up), but an edit at the root reuses the chain *)
  let base = {|
int g;
int *l3(int *p) { return p; }
int *l2(int *p) { return l3(p); }
int *l1(int *p) { return l2(p); }
int main(void) { int *x; x = l1(&g); return *x; }
|}
  in
  let root_edit = replace ~sub:"return *x;" ~by:"g = *x; return g;" base in
  match replay base [ root_edit ] with
  | [ s ] ->
    Alcotest.(check int) "root edit dirties one" 1 s.Incr_engine.st_dirty_initial;
    Alcotest.(check bool)
      "leaf chain reused" true
      (s.Incr_engine.st_reused >= 3)
  | _ -> assert false

(* ---- examples and generated workloads -------------------------------------------- *)

let examples_dir () =
  let dir = "../examples/c" in
  if Sys.file_exists dir then dir else "examples/c"

let test_examples_replay () =
  let dir = examples_dir () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".c" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let src =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (* append-a-procedure then revert: exercises new-proc dirtying
           and splice reuse on every example *)
        let probe =
          src ^ "\nint __incr_probe(int *p) { return p == 0; }\n"
        in
        ignore (replay ~file:f src [ probe; src ])
      end)
    (Sys.readdir dir)

let test_workload_replay () =
  (* a generated benchmark, edited by appending a probe procedure: most
     of the program must be reused and the digest must stay exact *)
  match Suite.find "anagram" with
  | None -> Alcotest.fail "suite entry missing"
  | Some e -> (
    let src = Suite.source e in
    let probe = src ^ "\nint __incr_probe(int *p) { return p == 0; }\n" in
    match replay ~file:"anagram.c" src [ probe ] with
    | [ s ] ->
      Alcotest.(check bool)
        "most procedures reused" true
        (s.Incr_engine.st_reused > s.Incr_engine.st_procs_total / 2)
    | _ -> assert false)

(* ---- cache tier audit ------------------------------------------------------------ *)

let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "alias_incr_cache_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let test_incremental_results_cacheable () =
  (* an incremental run stores under the edited source's own key: a
     later cold run of the same text is served from cache *)
  let dir = fresh_cache_dir () in
  let cache = Engine_cache.create dir in
  let base_input = Engine.load_string ~file:"cacheable.c" crafted_base in
  let edited = crafted_base ^ "\n/* v2 */\nint extra_g;\n" in
  let a0 = Test_util.analysis ~cache base_input in
  let prev = Engine.incr_snapshot a0 in
  ignore
    (Test_util.analysis ~cache ~req:(incremental prev)
       (Engine.load_string ~file:"cacheable.c" edited));
  let cache2 = Engine_cache.create dir in
  let hit =
    Test_util.analysis ~cache:cache2 (Engine.load_string ~file:"cacheable.c" edited)
  in
  Alcotest.(check bool)
    "edited text served from disk" true
    (hit.Engine.telemetry.Telemetry.t_cache = Telemetry.Disk_hit)

let tests =
  [
    Alcotest.test_case "digest locality" `Quick test_digest_locality;
    Alcotest.test_case "digest shift-insensitive" `Quick test_digest_shift_insensitive;
    Alcotest.test_case "program digest" `Quick test_program_digest;
    Alcotest.test_case "dep graph sccs" `Quick test_dep_graph_sccs;
    Alcotest.test_case "noop edit" `Quick test_noop_edit;
    Alcotest.test_case "body edit" `Quick test_body_edit;
    Alcotest.test_case "call edge add/remove" `Quick test_call_edge_add_remove;
    Alcotest.test_case "function add/remove" `Quick test_function_add_remove;
    Alcotest.test_case "indirect call edit" `Quick test_indirect_call_edit;
    Alcotest.test_case "chain reuse" `Quick test_chain_reuse;
    Alcotest.test_case "examples replay" `Quick test_examples_replay;
    Alcotest.test_case "workload replay" `Slow test_workload_replay;
    Alcotest.test_case "incremental results cacheable" `Quick
      test_incremental_results_cacheable;
  ]
