(* Tests for the points-to-driven checker suite: one true positive and
   one clean program per checker, SARIF structural validity, the
   registry, and the CI-vs-CS verdict comparison. *)

let lint ?checkers ?(compare_cs = false) src =
  let a = Test_util.analysis (Engine.load_string ~file:"lint.c" src) in
  Lint.run ?checkers ~compare_cs a

let fired r =
  List.sort_uniq String.compare
    (List.map (fun (d, _) -> d.Diag.d_checker) r.Lint.rp_diags)

let count_checker name r =
  List.length
    (List.filter (fun (d, _) -> String.equal d.Diag.d_checker name) r.Lint.rp_diags)

let check_fires name src expected =
  let r = lint src in
  Alcotest.(check int) name expected (count_checker name r)

(* --- per-checker fixtures: true positive --------------------------- *)

let dangling_positive () =
  let r =
    lint
      {|int *hold;
        int *ret_local(void) { int x; x = 1; return &x; }
        void store_local(void) { int y; y = 2; hold = &y; }
        int main(void) { int *p = ret_local(); store_local(); return *p + *hold; }|}
  in
  Alcotest.(check int) "both escape routes" 2 (count_checker "dangling-pointer" r)

let null_deref_positive () =
  check_fires "null-deref"
    {|int *never_set;
      int main(void) { int *p; p = 0; *p = 1; *never_set = 2; return 0; }|}
    2

let uninit_positive () =
  check_fires "uninit-read"
    {|int main(void) {
        int x; int *p; int *h;
        p = &x;
        h = (int *)malloc(4);
        return *p + *h;      /* x and the heap cell are both unwritten */
      }|}
    2

let conflict_positive () =
  check_fires "conflict"
    {|int shared;
      int work(int *p, int *q, int n) { *p = n; n += *q; *p = n + 1; return n; }
      int main(void) { return work(&shared, &shared, 1); }|}
    3

let dead_store_positive () =
  check_fires "dead-store"
    {|int live; int dead;
      int *lp; int *dp;
      void f(int v) { *lp = v; *dp = v; }
      int main(void) { lp = &live; dp = &dead; f(3); return live; }|}
    1

(* --- per-checker fixtures: clean ----------------------------------- *)

let dangling_clean () =
  (* address of a local used only within its own frame *)
  check_fires "dangling-pointer"
    {|int deref(int *p) { return *p; }
      int main(void) { int x; x = 5; return deref(&x); }|}
    0

let null_deref_clean () =
  check_fires "null-deref"
    {|int g;
      int main(void) { int *p; p = &g; *p = 1; return g; }|}
    0

let uninit_clean () =
  (* initialization dominates the read, including through a callee *)
  check_fires "uninit-read"
    {|void init(int *p) { *p = 9; }
      int main(void) {
        int x; int *h;
        init(&x);
        h = (int *)malloc(4);
        *h = x;
        return *h + x;
      }|}
    0

let uninit_loop_carried () =
  (* an update inside the loop body does not cover the first iteration *)
  check_fires "uninit-read"
    {|int main(void) {
        int x; int *p; int s; int i;
        p = &x; s = 0;
        for (i = 0; i < 3; i++) { s += *p; x = i; }
        return s;
      }|}
    1

let conflict_clean () =
  check_fires "conflict"
    {|int a; int b;
      void two(int *p, int *q) { *p = 1; *q = 2; }
      int main(void) { two(&a, &b); return a + b; }|}
    0

let dead_store_clean () =
  check_fires "dead-store"
    {|int g; int *gp;
      void set(int v) { *gp = v; }
      int main(void) { gp = &g; set(4); return g; }|}
    0

let whole_clean_program () =
  let r =
    lint ~compare_cs:true
      {|typedef struct node { int val; struct node *next; } node_t;
        node_t *push(node_t *head, int v) {
          node_t *n = (node_t *)malloc(sizeof(node_t));
          n->val = v; n->next = head; return n;
        }
        int total(node_t *l) {
          int s = 0;
          while (l) { s += l->val; l = l->next; }
          return s;
        }
        int main(void) {
          node_t *stack = 0; int i;
          for (i = 0; i < 4; i++) stack = push(stack, i);
          return total(stack);
        }|}
  in
  Alcotest.(check (list string)) "no diagnostics" [] (fired r);
  Alcotest.(check int) "no verdict delta" 0 (Lint.delta_count r)

(* --- registry ------------------------------------------------------ *)

let registry_selection () =
  Alcotest.(check (list string))
    "registry order"
    [ "dangling-pointer"; "null-deref"; "uninit-read"; "conflict"; "dead-store" ]
    (Registry.names ());
  (match Registry.select [ "conflict"; "null-deref" ] with
  | Ok cs ->
    (* selection preserves registry order, not request order *)
    Alcotest.(check (list string))
      "subset" [ "null-deref"; "conflict" ]
      (List.map (fun c -> c.Checker.ck_name) cs)
  | Error e -> Alcotest.fail e);
  (match Registry.select [] with
  | Ok cs -> Alcotest.(check int) "empty = all" 5 (List.length cs)
  | Error e -> Alcotest.fail e);
  match Registry.select [ "no-such-checker" ] with
  | Ok _ -> Alcotest.fail "unknown checker accepted"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the checker" true
      (contains msg "no-such-checker")

let lint_subset_runs_subset () =
  let src =
    {|int *hold;
      void esc(void) { int y; y = 2; hold = &y; }
      int main(void) { int *p; p = 0; esc(); *p = 1; return 0; }|}
  in
  let r = lint ~checkers:[ "null-deref" ] src in
  Alcotest.(check (list string)) "only null-deref" [ "null-deref" ] (fired r);
  let all = lint src in
  Alcotest.(check bool) "full run also finds the escape" true
    (count_checker "dangling-pointer" all >= 1)

(* --- SARIF and JSON rendering -------------------------------------- *)

let mixed_src =
  {|int *hold; int dead; int *dp;
    void esc(void) { int y; y = 2; hold = &y; }
    int main(void) {
      int *p; int x; int *xp;
      xp = &x; dp = &dead;
      p = 0; esc(); *p = *xp; *dp = 3;
      return 0;
    }|}

let sarif_is_valid () =
  let r = lint ~compare_cs:true mixed_src in
  Alcotest.(check bool) "has diagnostics" true (r.Lint.rp_diags <> []);
  let sarif = Lint.to_sarif r in
  Alcotest.(check (list string)) "schema check passes" [] (Diag.validate_sarif sarif);
  (* round-trip through the serialized form: still valid after reparsing *)
  let reparsed = Ejson.of_string (Ejson.to_string sarif) in
  Alcotest.(check (list string)) "valid after round-trip" []
    (Diag.validate_sarif reparsed);
  (* every result's property bag names the tier that produced it *)
  (match Option.bind (Ejson.member "runs" sarif) Ejson.to_list with
  | Some (run :: _) -> (
    match Option.bind (Ejson.member "results" run) Ejson.to_list with
    | Some (_ :: _ as results) ->
      List.iter
        (fun res ->
          match
            Option.bind (Ejson.member "properties" res) (Ejson.member "tier")
          with
          | Some (Ejson.String ("ci" | "cs")) -> ()
          | _ -> Alcotest.fail "result without properties.tier")
        results
    | _ -> Alcotest.fail "no results")
  | _ -> Alcotest.fail "no runs")

let sarif_validator_rejects_garbage () =
  let bad = Ejson.Assoc [ ("version", Ejson.String "2.1.0") ] in
  Alcotest.(check bool) "missing runs rejected" true
    (Diag.validate_sarif bad <> []);
  Alcotest.(check bool) "non-object rejected" true
    (Diag.validate_sarif (Ejson.String "sarif") <> [])

let json_report_shape () =
  let r = lint ~compare_cs:true mixed_src in
  let j = Ejson.of_string (Ejson.to_string (Lint.to_json r)) in
  (match Ejson.member "schema" j with
  | Some (Ejson.String s) -> Alcotest.(check string) "schema tag" "alias-lint/1" s
  | _ -> Alcotest.fail "missing schema tag");
  match Option.bind (Ejson.member "diagnostics" j) Ejson.to_list with
  | Some ds ->
    Alcotest.(check int) "all diagnostics serialized"
      (List.length r.Lint.rp_diags) (List.length ds);
    List.iter
      (fun d ->
        (match Ejson.member "verdict" d with
        | Some (Ejson.String ("agree" | "ci-only" | "cs-only")) -> ()
        | _ -> Alcotest.fail "diagnostic without verdict");
        (* every finding names the tier whose solution produced it *)
        match Ejson.member "tier" d with
        | Some (Ejson.String ("ci" | "cs")) -> ()
        | _ -> Alcotest.fail "diagnostic without tier")
      ds
  | None -> Alcotest.fail "missing diagnostics array"

(* --- CI vs CS ------------------------------------------------------- *)

let ci_cs_verdicts_agree () =
  (* every per-checker fixture above, linted under both solutions: the
     paper's CI≡CS result at client level means an empty delta *)
  List.iter
    (fun src ->
      let r = lint ~compare_cs:true src in
      Alcotest.(check bool) "compared" true r.Lint.rp_compared;
      Alcotest.(check int) "delta" 0 (Lint.delta_count r))
    [
      {|int *hold;
        int *ret_local(void) { int x; x = 1; return &x; }
        int main(void) { int *p = ret_local(); return *p; }|};
      {|int main(void) { int *p; p = 0; *p = 1; return 0; }|};
      {|int main(void) { int x; int *p; p = &x; return *p; }|};
      {|int shared;
        int work(int *p, int *q, int n) { *p = n; n += *q; return n; }
        int main(void) { return work(&shared, &shared, 1); }|};
      mixed_src;
    ]

let telemetry_records_checkers () =
  let a = Test_util.analysis (Engine.load_string ~file:"t.c" "int main(void) { return 0; }") in
  let r = Lint.run ~compare_cs:true a in
  ignore r;
  let names = List.map (fun s -> s.Telemetry.ck_checker) a.Engine.telemetry.Telemetry.t_checkers in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " timed") true (List.mem c names);
      Alcotest.(check bool) ("cs:" ^ c ^ " timed") true (List.mem ("cs:" ^ c) names))
    (Registry.names ())

let tests =
  [
    Alcotest.test_case "dangling positive" `Quick dangling_positive;
    Alcotest.test_case "dangling clean" `Quick dangling_clean;
    Alcotest.test_case "null-deref positive" `Quick null_deref_positive;
    Alcotest.test_case "null-deref clean" `Quick null_deref_clean;
    Alcotest.test_case "uninit positive" `Quick uninit_positive;
    Alcotest.test_case "uninit clean" `Quick uninit_clean;
    Alcotest.test_case "uninit loop-carried" `Quick uninit_loop_carried;
    Alcotest.test_case "conflict positive" `Quick conflict_positive;
    Alcotest.test_case "conflict clean" `Quick conflict_clean;
    Alcotest.test_case "dead-store positive" `Quick dead_store_positive;
    Alcotest.test_case "dead-store clean" `Quick dead_store_clean;
    Alcotest.test_case "whole clean program" `Quick whole_clean_program;
    Alcotest.test_case "registry selection" `Quick registry_selection;
    Alcotest.test_case "lint subset" `Quick lint_subset_runs_subset;
    Alcotest.test_case "sarif valid" `Quick sarif_is_valid;
    Alcotest.test_case "sarif validator rejects" `Quick sarif_validator_rejects_garbage;
    Alcotest.test_case "json report shape" `Quick json_report_shape;
    Alcotest.test_case "ci-cs verdicts agree" `Quick ci_cs_verdicts_agree;
    Alcotest.test_case "telemetry records checkers" `Quick telemetry_records_checkers;
  ]
