(* The hash-consed points-to set layer: model-based randomized laws
   against a naive Set.Make(Int) reference, the pid-packing invariants
   behind Ptpair.key, and the pinned-digest regression gate proving the
   memoized solvers compute byte-identical solutions to the seed
   implementation. *)

module IS = Set.Make (Int)

let to_model s = IS.of_list (Ptset.elements s)
let of_model m = Ptset.of_list (IS.elements m)

(* small element domain so random sets collide, share ids, and hit the
   union/subset memo caches *)
let arbitrary_elems =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 12) (int_range 0 40))
    ~print:QCheck.Print.(list int)

(* ---- algebraic laws vs the model ----------------------------------------------- *)

let law_of_list_elements =
  QCheck.Test.make ~name:"of_list sorts and dedups" ~count:500 arbitrary_elems
    (fun xs ->
      Ptset.elements (Ptset.of_list xs) = IS.elements (IS.of_list xs))

let law_union =
  QCheck.Test.make ~name:"union matches model" ~count:500
    (QCheck.pair arbitrary_elems arbitrary_elems)
    (fun (xs, ys) ->
      let a = Ptset.of_list xs and b = Ptset.of_list ys in
      IS.equal (to_model (Ptset.union a b)) (IS.union (to_model a) (to_model b)))

let law_subset =
  QCheck.Test.make ~name:"subset matches model" ~count:500
    (QCheck.pair arbitrary_elems arbitrary_elems)
    (fun (xs, ys) ->
      let a = Ptset.of_list xs and b = Ptset.of_list ys in
      Ptset.subset a b = IS.subset (to_model a) (to_model b))

let law_add_mem =
  QCheck.Test.make ~name:"add/mem match model" ~count:500
    (QCheck.pair arbitrary_elems (QCheck.int_range 0 40))
    (fun (xs, x) ->
      let a = Ptset.of_list xs in
      let m = to_model a in
      Ptset.mem a x = IS.mem x m
      && IS.equal (to_model (Ptset.add a x)) (IS.add x m)
      && Ptset.cardinal (Ptset.add a x) = IS.cardinal (IS.add x m))

let law_interning =
  QCheck.Test.make ~name:"equal content means identical handle" ~count:500
    arbitrary_elems (fun xs ->
      let a = Ptset.of_list xs and b = of_model (IS.of_list xs) in
      a == b && Ptset.id a = Ptset.id b && Ptset.equal a b)

(* ---- basics --------------------------------------------------------------------- *)

let basics () =
  Alcotest.(check int) "empty id" 0 (Ptset.id Ptset.empty);
  Alcotest.(check bool) "empty is empty" true (Ptset.is_empty Ptset.empty);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Ptset.elements (Ptset.singleton 7));
  Alcotest.(check bool)
    "singleton interned" true
    (Ptset.singleton 7 == Ptset.singleton 7);
  Alcotest.(check bool)
    "union with empty is identity" true
    (let s = Ptset.of_list [ 3; 1; 4 ] in
     Ptset.union s Ptset.empty == s && Ptset.union Ptset.empty s == s);
  Alcotest.(check bool)
    "subset of self via id fast path" true
    (let s = Ptset.of_list [ 9; 2 ] in
     Ptset.subset s s)

(* churn the two-generation memo caches past their rotation point and
   check results stay correct afterwards *)
let cache_rotation_is_safe () =
  let st = Random.State.make [| 0x9e3779b9 |] in
  let sets =
    Array.init 256 (fun _ ->
        Ptset.of_list
          (List.init (1 + Random.State.int st 6) (fun _ -> Random.State.int st 4000)))
  in
  for _ = 1 to 200_000 do
    let a = sets.(Random.State.int st 256)
    and b = sets.(Random.State.int st 256) in
    let u = Ptset.union a b in
    let reference = IS.union (to_model a) (to_model b) in
    if not (IS.equal (to_model u) reference) then
      Alcotest.fail "union wrong after cache churn";
    if Ptset.subset a b <> IS.subset (to_model a) (to_model b) then
      Alcotest.fail "subset wrong after cache churn"
  done;
  let s = Ptset.stats () in
  Alcotest.(check bool)
    "cache actually exercised" true
    (s.Ptset.st_cache_hits > 0 && s.Ptset.st_cache_misses > 0)

(* ---- Ptpair.key pid-packing ------------------------------------------------------ *)

let key_is_pid_injective () =
  let tbl = Apath.create_table () in
  let base name = Apath.of_base tbl (Apath.mk_base tbl (Apath.Bext name) ~singular:true) in
  let paths = List.map base [ "a"; "b"; "c"; "d" ] in
  let pairs =
    List.concat_map (fun p -> List.map (fun r -> Ptpair.make p r) paths) paths
  in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let same_identity =
            p.Ptpair.path.Apath.pid = q.Ptpair.path.Apath.pid
            && p.Ptpair.referent.Apath.pid = q.Ptpair.referent.Apath.pid
          in
          Alcotest.(check bool)
            "key equality iff pid identity" same_identity
            (Ptpair.key p = Ptpair.key q))
        pairs)
    pairs;
  (* the packing itself: high word is the path pid, low word the referent *)
  List.iter
    (fun p ->
      Alcotest.(check int)
        "key packs pids" ((p.Ptpair.path.Apath.pid lsl 31) lor p.Ptpair.referent.Apath.pid)
        (Ptpair.key p))
    pairs

(* ---- pinned seed digests --------------------------------------------------------- *)

(* MD5 of the canonical CI+CS+lint dump computed by the seed (pre
   hash-consing) implementation.  The optimized solvers must reproduce
   these byte for byte: the memoized meets, the return-propagation
   subscriptions, and the stale-item skip are all pure scheduling /
   caching changes.

   part/anagram were re-pinned when the conflict lint started sorting
   its witness-path set: the old rendering leaked path-interning order,
   which an incremental re-solve does not reproduce.  The underlying
   CI/CS solutions are unchanged (the per-pair dump lines digested here
   are sorted independently of that rendering). *)
let seed_digests =
  [
    ("allroots", "a357fa1440bdb9a75348f3ee3f665045");
    ("part", "69be60177c2735c5b4848bd4bde94659");
    ("anagram", "0f3c2f0f8c3fd726cebf45b5d122920a");
    ("span", "603d8311df5295a7868403137ce124db");
  ]

let analysis_of name =
  let entry = Option.get (Suite.find name) in
  let input = Engine.load_string ~file:(name ^ ".c") (Suite.source entry) in
  Test_util.analysis input

let solutions_match_seed () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string)
        (name ^ " digest") expected
        (Solution_digest.digest (analysis_of name)))
    seed_digests

(* The CI dump renders each distinct set once; it must equal the plain
   per-node rendering, byte for byte. *)
let naive_ci_dump (a : Engine.analysis) =
  let buf = Buffer.create 4096 in
  let g = a.Engine.graph in
  Vdg.iter_nodes g (fun n ->
      let lines =
        Ptpair.Set.fold g.Vdg.tbl
          (fun p acc -> Ptpair.to_string p :: acc)
          (Ci_solver.pairs a.Engine.ci n.Vdg.nid) []
        |> List.sort compare
      in
      if lines <> [] then begin
        Buffer.add_string buf (Printf.sprintf "node %d\n" n.Vdg.nid);
        List.iter (fun l -> Buffer.add_string buf ("ci " ^ l ^ "\n")) lines
      end);
  Buffer.contents buf

let ci_dump_matches_naive () =
  let battery = List.filteri (fun i _ -> i < 10) Test_util.battery_profiles in
  List.iter
    (fun (file, src) ->
      let a = Test_util.analysis (Engine.load_string ~file src) in
      Alcotest.(check string) (file ^ " ci dump") (naive_ci_dump a) (Solution_digest.ci_dump a))
    (Test_util.solver_subjects ~battery ())

(* the stale-skip fast path must not change the fixpoint *)
let stale_skip_preserves_solutions () =
  let a = analysis_of "part" in
  let solve stale_skip =
    Cs_solver.solve
      ~config:{ Cs_solver.default_config with Cs_solver.stale_skip }
      a.Engine.graph ~ci:a.Engine.ci
  in
  let canon cs =
    let out = ref [] in
    Vdg.iter_nodes a.Engine.graph (fun n ->
        List.iter
          (fun (p, chains) ->
            let ids = List.sort compare (List.map Ptset.id chains) in
            out := (n.Vdg.nid, Ptpair.key p, ids) :: !out)
          (Cs_solver.qualified cs n.Vdg.nid));
    List.sort compare !out
  in
  let fast = solve true and slow = solve false in
  Alcotest.(check bool)
    "identical qualified solutions" true
    (canon fast = canon slow);
  Alcotest.(check bool)
    "fast path skipped something or matched exactly" true
    (Cs_solver.worklist_stale_skips fast >= 0)

(* Every slot — one per (consumer, input) edge — processes each of its
   producer's pairs exactly once, so a cold solve's transfers are exactly
   Σ_o |pairs o| × |consumers o|: a pair that reached a consumer input
   twice, or never, breaks the equality.  Every slot activation delivers
   at least one new pair, so activations never exceed transfers. *)
let expected_transfers ci =
  let g = Ci_solver.graph ci in
  let n = ref 0 in
  Vdg.iter_nodes g (fun nd ->
      let o = nd.Vdg.nid in
      n := !n + (Ptpair.Set.cardinal (Ci_solver.pairs ci o) * List.length (Vdg.consumers g o)));
  !n

let check_delivery label ci =
  Alcotest.(check int) (label ^ " transfers = pairs × consumers") (expected_transfers ci)
    (Ci_solver.flow_in_count ci);
  Alcotest.(check bool) (label ^ " activations <= transfers") true
    (Ci_solver.worklist_pushes ci <= Ci_solver.flow_in_count ci);
  Alcotest.(check int) (label ^ " pops = pushes") (Ci_solver.worklist_pushes ci)
    (Ci_solver.worklist_pops ci)

let solver_stats_populated () =
  let a = analysis_of "allroots" in
  let cs = Engine.cs a in
  let s = Cs_solver.ptset_stats cs in
  (* counter fields are per-solve deltas: an earlier solve in the same
     domain may have interned everything this one needs, so they can be
     zero — but never negative.  Byte figures are absolute. *)
  Alcotest.(check bool) "interned sets delta sane" true (s.Ptset.st_sets >= 0);
  Alcotest.(check bool) "peak bytes counted" true (s.Ptset.st_peak_bytes > 0);
  check_delivery "allroots" a.Engine.ci

let exact_delivery () =
  List.iter
    (fun (file, src) ->
      check_delivery file (Test_util.analysis (Engine.load_string ~file src)).Engine.ci)
    (Test_util.solver_subjects ())

let tests =
  [
    Alcotest.test_case "basics" `Quick basics;
    Alcotest.test_case "cache rotation is safe" `Quick cache_rotation_is_safe;
    Alcotest.test_case "Ptpair.key packs pids" `Quick key_is_pid_injective;
    Alcotest.test_case "solutions match seed digests" `Quick solutions_match_seed;
    Alcotest.test_case "stale skip preserves solutions" `Quick
      stale_skip_preserves_solutions;
    Alcotest.test_case "solver ptset stats populated" `Quick solver_stats_populated;
    Alcotest.test_case "cold solve pushes each item once" `Slow exact_delivery;
    Alcotest.test_case "ci dump renders each set once" `Slow ci_dump_matches_naive;
    QCheck_alcotest.to_alcotest law_of_list_elements;
    QCheck_alcotest.to_alcotest law_union;
    QCheck_alcotest.to_alcotest law_subset;
    QCheck_alcotest.to_alcotest law_add_mem;
    QCheck_alcotest.to_alcotest law_interning;
  ]
