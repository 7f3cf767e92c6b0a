(* Cross-analysis integration tests.  These are the repository's strongest
   checks:

   - soundness: every storage access observed by the concrete interpreter
     is predicted by every analysis at the same source position;
   - precision ordering: CS refines CI; CI (at memory operations,
     projected to bases) refines Andersen; Andersen refines Steensgaard;
   - ablation monotonicity: disabling strong updates only adds facts;
   - the paper's headline shape on benchmark programs.

   The battery runs over hand-written programs, suite benchmarks, and a
   set of randomized generator profiles. *)

type run = {
  prog : Sil.program;
  g : Vdg.t;
  ci : Ci_solver.t;
  cs : Cs_solver.t;
}

let analyze_src src =
  let prog = Norm.compile ~file:"x.c" src in
  let g = Vdg_build.build prog in
  let ci = Ci_solver.solve g in
  { prog; g; ci; cs = Cs_solver.solve g ~ci }

let analyze_prog prog =
  let g = Vdg_build.build prog in
  let ci = Ci_solver.solve g in
  { prog; g; ci; cs = Cs_solver.solve g ~ci }

(* ---- property: CS subset of CI ------------------------------------------------- *)

let assert_cs_subset_ci r label =
  Vdg.iter_nodes r.g (fun n ->
      let cip = Ci_solver.pairs r.ci n.Vdg.nid in
      List.iter
        (fun p ->
          if not (Ptpair.Set.mem cip p) then
            Alcotest.fail
              (Printf.sprintf "%s: CS pair %s not in CI (node %d)" label
                 (Ptpair.to_string p) n.Vdg.nid))
        (Cs_solver.pairs r.cs n.Vdg.nid))

(* ---- property: interpreter soundness -------------------------------------------- *)

(* every concrete access must be covered by the analysis' prediction for
   some memory operation at the same source position and direction *)
let assert_analysis_covers_interp r label ~fuel =
  let res = Interp.run ~fuel r.prog in
  (match res.Interp.outcome with
  | Interp.Trap m -> Alcotest.fail (label ^ ": interpreter trap: " ^ m)
  | _ -> ());
  let memops_by_key = Hashtbl.create 64 in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      match Vdg.loc_of r.g n.Vdg.nid with
      | Some loc ->
        let key = (loc, rw) in
        let prior =
          Option.value ~default:[] (Hashtbl.find_opt memops_by_key key)
        in
        Hashtbl.replace memops_by_key key (n.Vdg.nid :: prior)
      | None -> ())
    (Vdg.memops r.g);
  List.iter
    (fun ob ->
      match Interp.observed_apath r.g.Vdg.tbl ob with
      | None -> ()
      | Some opath ->
        let nodes =
          Option.value ~default:[]
            (Hashtbl.find_opt memops_by_key (ob.Interp.ob_loc, ob.Interp.ob_rw))
        in
        let covered_by locations_of =
          List.exists
            (fun nid ->
              List.exists (fun al -> Apath.dom al opath) (locations_of nid))
            nodes
        in
        if not (covered_by (Ci_solver.referenced_locations r.ci)) then
          Alcotest.fail
            (Printf.sprintf "%s: CI misses %s" label (Interp.string_of_observation ob));
        if not (covered_by (Cs_solver.referenced_locations r.cs)) then
          Alcotest.fail
            (Printf.sprintf "%s: CS misses %s" label (Interp.string_of_observation ob)))
    res.Interp.observations

(* ---- property: baselines over-approximate CI at memory operations ----------------- *)

let assert_baselines_cover_ci r label =
  let andersen = Andersen.analyze r.prog in
  let steensgaard = Steensgaard.analyze r.prog in
  (* Bridge via source positions: for indirect operations the baselines
     record the dereference at the same position, so CI's base set there
     must be contained in Andersen's, and Andersen's in Steensgaard's.
     Positions with no baseline record (direct accesses folded by SSA, or
     synthetic entry-prologue writes) are skipped — the baselines track
     pointer dereferences only. *)
  List.iter
    (fun ((n : Vdg.node), rw) ->
      match Vdg.loc_of r.g n.Vdg.nid with
      | None -> ()
      | Some loc ->
        let a_locs = Andersen.memop_locations andersen loc rw in
        if a_locs <> [] then begin
          let ci_bases =
            List.map
              (fun (p : Apath.t) -> Absloc.of_base (Option.get p.Apath.proot))
              (Ci_solver.referenced_locations r.ci n.Vdg.nid)
          in
          let s_locs = Steensgaard.memop_locations steensgaard loc rw in
          List.iter
            (fun b ->
              if not (List.exists (Absloc.equal b) a_locs) then
                Alcotest.fail
                  (Printf.sprintf "%s: CI base %s at %s not in Andersen [%s]" label
                     (Absloc.to_string b) (Srcloc.to_string loc)
                     (String.concat ";" (List.map Absloc.to_string a_locs))))
            ci_bases;
          List.iter
            (fun b ->
              if not (List.exists (Absloc.equal b) s_locs) then
                Alcotest.fail
                  (Printf.sprintf "%s: Andersen loc %s not in Steensgaard" label
                     (Absloc.to_string b)))
            a_locs
        end)
    (Vdg.indirect_memops r.g)

(* ---- property: strong-update ablation is monotone --------------------------------- *)

let assert_strong_update_monotone src label =
  let prog = Norm.compile ~file:"x.c" src in
  let g = Vdg_build.build prog in
  let strong = Ci_solver.solve g in
  let weak = Ci_solver.solve ~config:{ Ci_solver.default_config with Ci_solver.strong_updates = false } g in
  Vdg.iter_nodes g (fun n ->
      Ptpair.Set.iter g.Vdg.tbl
        (fun p ->
          if not (Ptpair.Set.mem (Ci_solver.pairs weak n.Vdg.nid) p) then
            Alcotest.fail
              (Printf.sprintf "%s: disabling strong updates dropped %s" label
                 (Ptpair.to_string p)))
        (Ci_solver.pairs strong n.Vdg.nid))

(* ---- property: the solution is worklist-schedule independent ----------------------- *)

(* the paper (Section 3.1): "its convergence time is independent of the
   scheduling strategy used for the worklist"; the solution certainly is,
   and we check it across FIFO, LIFO and random orders: every node's
   set (the same hash-consed version) and the transfer count, which
   counts each pair once per consumer input whatever the order *)
let assert_schedule_independent ?(file = "x.c") src label =
  let prog = Norm.compile ~file src in
  let g = Vdg_build.build prog in
  let reference = Ci_solver.solve g in
  let schedules = [ Ci_solver.Lifo; Ci_solver.Random_order 1; Ci_solver.Random_order 42 ] in
  List.iter
    (fun schedule ->
      let other =
        Ci_solver.solve
          ~config:{ Ci_solver.default_config with Ci_solver.schedule } g
      in
      Vdg.iter_nodes g (fun n ->
          if
            not
              (Ptset.equal
                 (Ci_solver.pairs reference n.Vdg.nid)
                 (Ci_solver.pairs other n.Vdg.nid))
          then
            Alcotest.fail
              (Printf.sprintf "%s: schedule changed the solution at node %d" label
                 n.Vdg.nid));
      Alcotest.(check int)
        (label ^ ": transfers under another schedule")
        (Ci_solver.flow_in_count reference) (Ci_solver.flow_in_count other))
    schedules

(* ---- property: sparse (VDG) and dense (CFG) representations agree ------------------ *)

(* the paper: the analyses "apply equally well to control-flow graph
   representations; they merely run faster on the VDG because it is more
   sparse" — so at each source position the referenced-location sets must
   coincide, while the dense graph is strictly larger *)
let assert_sparse_dense_agree prog label =
  let solve mode =
    let g = Vdg_build.build ~mode prog in
    (g, Ci_solver.solve g)
  in
  let gs, cis = solve Vdg_build.Sparse in
  let gd, cid = solve Vdg_build.Dense in
  if Vdg.n_nodes gd <= Vdg.n_nodes gs then
    Alcotest.fail (label ^ ": dense graph is not larger");
  (* union the location sets per (position, direction) on each side *)
  let collect g ci =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun ((n : Vdg.node), rw) ->
        match Vdg.loc_of g n.Vdg.nid with
        | Some loc when loc <> Srcloc.dummy ->
          let key = (Srcloc.to_string loc, rw) in
          let prior = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key
            (List.map Apath.to_string (Ci_solver.referenced_locations ci n.Vdg.nid)
            @ prior)
        | _ -> ())
      (Vdg.memops g);
    tbl
  in
  let sparse_tbl = collect gs cis and dense_tbl = collect gd cid in
  Hashtbl.iter
    (fun key locs ->
      let dense_locs =
        Option.value ~default:[] (Hashtbl.find_opt dense_tbl key)
      in
      List.iter
        (fun l ->
          if not (List.mem l dense_locs) then
            Alcotest.fail
              (Printf.sprintf "%s: sparse location %s at %s missing in dense" label l
                 (fst key)))
        locs)
    sparse_tbl;
  (* the converse does not hold pointwise: dense additionally touches the
     scalar variables that the sparse representation keeps in SSA (that
     is precisely the sparseness win), so we only check containment *)
  ignore dense_tbl

(* ---- hand-written subjects ---------------------------------------------------------- *)

let subjects =
  [
    ( "swap",
      {|int main(void) {
          int a; int b; int *pa; int *pb; int t;
          a = 1; b = 2; pa = &a; pb = &b;
          t = *pa; *pa = *pb; *pb = t;
          return a * 10 + b;
        }|} );
    ( "list-reverse",
      {|typedef struct n { int v; struct n *next; } node;
        node *rev(node *l) {
          node *acc = 0;
          while (l) { node *nx = l->next; l->next = acc; acc = l; l = nx; }
          return acc;
        }
        int main(void) {
          node *l = 0; int i; int s; s = 0;
          for (i = 0; i < 4; i++) {
            node *x = (node *)malloc(sizeof(node));
            x->v = i; x->next = l; l = x;
          }
          l = rev(l);
          while (l) { s = s * 10 + l->v; l = l->next; }
          return s & 127;
        }|} );
    ( "matrix",
      {|int m[3][3];
        int main(void) {
          int i; int j; int s; s = 0;
          for (i = 0; i < 3; i++) for (j = 0; j < 3; j++) m[i][j] = i * 3 + j;
          for (i = 0; i < 3; i++) s += m[i][i];
          return s;
        }|} );
    ( "struct-graph",
      {|struct node { int tag; struct node *left; struct node *right; };
        struct node pool[8]; int used;
        struct node *alloc_node(int tag) {
          struct node *n = &pool[used];
          used++; n->tag = tag; n->left = 0; n->right = 0;
          return n;
        }
        int sum(struct node *n) {
          if (!n) return 0;
          return n->tag + sum(n->left) + sum(n->right);
        }
        int main(void) {
          struct node *root = alloc_node(1);
          root->left = alloc_node(2);
          root->right = alloc_node(3);
          root->left->left = alloc_node(4);
          return sum(root);
        }|} );
    ( "fn-ptr-dispatch",
      {|int add(int a, int b) { return a + b; }
        int sub(int a, int b) { return a - b; }
        int apply(int (*op)(int, int), int a, int b) { return op(a, b); }
        int main(void) { return apply(add, 5, 3) * 10 + apply(sub, 5, 3); }|} );
    ( "string-work",
      {|char buf[32];
        int count(char *s, int c) {
          int n = 0;
          while (*s) { if (*s == c) n++; s++; }
          return n;
        }
        int main(void) {
          strcpy(buf, "abracadabra");
          return count(buf, 'a') * 10 + (int)strlen(buf) - 10;
        }|} );
    ( "hash-table",
      {|typedef struct ent { int key; int val; struct ent *next; } ent_t;
        ent_t *buckets[8];
        void put(int key, int val) {
          ent_t *e = (ent_t *)malloc(sizeof(ent_t));
          e->key = key; e->val = val;
          e->next = buckets[key & 7];
          buckets[key & 7] = e;
        }
        int get(int key) {
          ent_t *e = buckets[key & 7];
          while (e) { if (e->key == key) return e->val; e = e->next; }
          return -1;
        }
        int main(void) {
          int i;
          for (i = 0; i < 20; i++) put(i, i * i);
          return (get(5) + get(13)) & 127;
        }|} );
    ( "tokenizer",
      {|char input[64];
        int next_token(char **cursor, char *out) {
          char *p = *cursor;
          int n = 0;
          while (*p == ' ') p++;
          if (!*p) return 0;
          while (*p && *p != ' ') { out[n] = *p; n++; p++; }
          out[n] = 0;
          *cursor = p;
          return n;
        }
        int main(void) {
          char tok[16];
          char *cur = input;
          int count = 0;
          strcpy(input, "alpha beta gamma");
          while (next_token(&cur, tok)) count++;
          return count;
        }|} );
    ( "btree-qsort",
      {|int data[6];
        int cmp_up(void *a, void *b) { return *(int *)a - *(int *)b; }
        int cmp_down(void *a, void *b) { return *(int *)b - *(int *)a; }
        int main(int argc, char **argv) {
          int i;
          int (*cmp)(void *, void *);
          for (i = 0; i < 6; i++) data[i] = (i * 7) % 6;
          cmp = argc > 1 ? cmp_down : cmp_up;
          qsort(data, 6, sizeof(int), cmp);
          return data[0] * 10 + data[5];
        }|} );
    ( "static-counter",
      {|int bump(void) { static int n; n = n + 1; return n; }
        int twice(void) { return bump() + bump(); }
        int main(void) { twice(); return bump(); }|} );
    ( "out-params",
      {|void divmod(int a, int b, int *q, int *r) { *q = a / b; *r = a % b; }
        int main(void) {
          int q; int r;
          divmod(17, 5, &q, &r);
          return q * 10 + r;
        }|} );
  ]

let soundness_hand_written () =
  List.iter
    (fun (label, src) ->
      let r = analyze_src src in
      assert_cs_subset_ci r label;
      assert_analysis_covers_interp r label ~fuel:100_000;
      assert_baselines_cover_ci r label)
    subjects

let strong_update_monotone_hand_written () =
  List.iter (fun (label, src) -> assert_strong_update_monotone src label) subjects

let sparse_dense_agreement () =
  List.iter
    (fun (label, src) ->
      assert_sparse_dense_agree (Norm.compile ~file:"x.c" src) label)
    subjects;
  let entry = Option.get (Suite.find "allroots") in
  assert_sparse_dense_agree (Suite.compile entry) "allroots"

let schedule_independence () =
  List.iter (fun (label, src) -> assert_schedule_independent src label) subjects;
  (* and on a whole benchmark, where the worklist gets large *)
  let entry = Option.get (Suite.find "allroots") in
  assert_schedule_independent (Suite.source entry) "allroots";
  (* and on the generated battery *)
  List.iter
    (fun profile ->
      let file = profile.Profile.name ^ ".c" in
      assert_schedule_independent ~file (Genc.generate profile) file)
    Test_util.battery_profiles

(* ---- randomized generator battery ----------------------------------------------------- *)

let random_profiles =
  List.map
    (fun (i, lines) ->
      let p = Profile.default ~name:(Printf.sprintf "rand%d" i) ~target_lines:lines in
      match i mod 4 with
      | 0 -> { p with Profile.string_heavy = true }
      | 1 -> { p with Profile.use_funptr = true; n_stashers = 2 }
      | 2 -> { p with Profile.multi_target = false; list_exchange = true; n_list_types = 2 }
      | _ -> p)
    [ (0, 180); (1, 260); (2, 340); (3, 420); (4, 300); (5, 220) ]

let random_programs_battery () =
  List.iter
    (fun profile ->
      let label = profile.Profile.name in
      let src = Genc.generate profile in
      let prog = Norm.compile ~file:(label ^ ".c") src in
      let r = analyze_prog prog in
      assert_cs_subset_ci r label;
      assert_analysis_covers_interp r label ~fuel:2_000_000;
      assert_baselines_cover_ci r label)
    random_profiles

(* ---- paper-shape assertions on benchmarks ------------------------------------------------ *)

let paper_headline_on_small_benchmarks () =
  List.iter
    (fun name ->
      let entry = Option.get (Suite.find name) in
      let r = analyze_prog (Suite.compile entry) in
      assert_cs_subset_ci r name;
      (* the headline: CS adds nothing at indirect memory operations *)
      List.iter
        (fun ((n : Vdg.node), _) ->
          let a =
            List.sort Apath.compare (Ci_solver.referenced_locations r.ci n.Vdg.nid)
          in
          let b =
            List.sort Apath.compare (Cs_solver.referenced_locations r.cs n.Vdg.nid)
          in
          if not (List.equal Apath.equal a b) then
            Alcotest.fail
              (Printf.sprintf "%s: CS refines CI at node %d (paper shape broken)" name
                 n.Vdg.nid))
        (Vdg.indirect_memops r.g);
      (* CS drops some pairs overall (or at worst none), never adds *)
      let ci_total = (Stats.ci_pair_counts r.ci).Stats.pc_total in
      let cs_total = (Stats.cs_pair_counts r.cs r.g).Stats.pc_total in
      Alcotest.(check bool) (name ^ ": cs <= ci") true (cs_total <= ci_total))
    [ "allroots"; "backprop"; "part"; "anagram"; "span" ]

let benchmark_soundness () =
  List.iter
    (fun name ->
      let entry = Option.get (Suite.find name) in
      let r = analyze_prog (Suite.compile entry) in
      assert_analysis_covers_interp r name ~fuel:2_000_000)
    [ "allroots"; "backprop"; "part" ]

let figure7_shape () =
  (* spurious pairs should skew toward local paths (paper, Figure 7) *)
  let entry = Option.get (Suite.find "span") in
  let r = analyze_prog (Suite.compile entry) in
  let bd = Stats.spurious_breakdown r.ci r.cs in
  Alcotest.(check bool) "spurious pairs exist in span" true (bd.Stats.bd_total > 0);
  (* row 1 of the breakdown matrix is the local-path class *)
  let local_paths = Array.fold_left ( + ) 0 bd.Stats.bd_counts.(1) in
  Alcotest.(check bool) "some spurious pairs on local paths" true (local_paths > 0)

let pruning_stats_shape () =
  (* the paper: ~87% of indirect ops are single-location under CI *)
  let entry = Option.get (Suite.find "anagram") in
  let r = analyze_prog (Suite.compile entry) in
  let p = Stats.pruning_stats r.ci in
  let pct = float_of_int p.Stats.pr_single /. float_of_int (max 1 p.Stats.pr_ops) in
  Alcotest.(check bool) "most ops single-location" true (pct > 0.6)

let tests =
  [
    Alcotest.test_case "hand-written soundness battery" `Quick soundness_hand_written;
    Alcotest.test_case "strong-update monotonicity" `Quick strong_update_monotone_hand_written;
    Alcotest.test_case "schedule independence" `Quick schedule_independence;
    Alcotest.test_case "sparse/dense agreement" `Quick sparse_dense_agreement;
    Alcotest.test_case "random program battery" `Slow random_programs_battery;
    Alcotest.test_case "paper headline shape" `Slow paper_headline_on_small_benchmarks;
    Alcotest.test_case "benchmark soundness" `Slow benchmark_soundness;
    Alcotest.test_case "figure 7 shape" `Slow figure7_shape;
    Alcotest.test_case "pruning stats shape" `Slow pruning_stats_shape;
  ]
