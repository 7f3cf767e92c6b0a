(* Parallel-solver tests: the sharded solve must reach the sequential
   fixpoint — the same pairs at every node, at every width — on every
   example program and on a battery of fixed-seed generated programs.
   Plus unit tests for the hoisted SCC condensation and the
   steal-capable deque the scheduler runs on. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let example_files () =
  let dir = "../examples/c" in
  let dir = if Sys.file_exists dir then dir else "examples/c" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* ---- Scc ------------------------------------------------------------------------ *)

let check_scc_invariants label (scc : Scc.t) ~succ =
  let k = Scc.n_components scc in
  (* every vertex is in exactly one component's member list *)
  let seen = Array.make scc.Scc.n_vertices 0 in
  Array.iteri
    (fun c members ->
      List.iter
        (fun v ->
          seen.(v) <- seen.(v) + 1;
          Alcotest.(check int)
            (label ^ ": member agrees with scc_of") c scc.Scc.scc_of.(v))
        members)
    scc.Scc.members;
  Array.iter (fun n -> Alcotest.(check int) (label ^ ": partition") 1 n) seen;
  (* condensation edges mirror the vertex edges, with self-loops dropped *)
  Array.iteri
    (fun v vs ->
      List.iter
        (fun w ->
          let cv = scc.Scc.scc_of.(v) and cw = scc.Scc.scc_of.(w) in
          if cv <> cw then
            Alcotest.(check bool)
              (label ^ ": condensation has edge") true
              (List.mem cw scc.Scc.succ.(cv) && List.mem cv scc.Scc.pred.(cw)))
        vs)
    succ;
  Array.iteri
    (fun c cs ->
      List.iter
        (fun c' ->
          Alcotest.(check bool) (label ^ ": no self-loop") false (c = c'))
        cs)
    scc.Scc.succ;
  (* topo: successors appear before their predecessors *)
  let pos = Array.make k 0 in
  Array.iteri (fun i c -> pos.(c) <- i) scc.Scc.topo;
  Array.iteri
    (fun c cs ->
      List.iter
        (fun c' ->
          Alcotest.(check bool)
            (label ^ ": topo is bottom-up") true
            (pos.(c') < pos.(c)))
        cs)
    scc.Scc.succ

let test_scc_shapes () =
  (* a 3-cycle feeding a 2-chain, plus an isolated vertex *)
  let succ = [| [ 1 ]; [ 2 ]; [ 0; 3 ]; [ 4 ]; []; [] |] in
  let scc = Scc.condense ~n:6 ~succ in
  Alcotest.(check int) "component count" 4 (Scc.n_components scc);
  check_scc_invariants "mixed" scc ~succ;
  Alcotest.(check bool)
    "cycle collapses" true
    (scc.Scc.scc_of.(0) = scc.Scc.scc_of.(1)
    && scc.Scc.scc_of.(1) = scc.Scc.scc_of.(2));
  (* self-loop is a 1-vertex SCC, not a condensation edge *)
  let succ = [| [ 0; 1 ]; [] |] in
  let scc = Scc.condense ~n:2 ~succ in
  Alcotest.(check int) "self-loop components" 2 (Scc.n_components scc);
  check_scc_invariants "self-loop" scc ~succ;
  (* empty graph *)
  let scc = Scc.condense ~n:0 ~succ:[||] in
  Alcotest.(check int) "empty graph" 0 (Scc.n_components scc)

let test_scc_random () =
  let rng = Srng.of_string "scc-battery" in
  for case = 1 to 30 do
    let n = 1 + Srng.int rng 40 in
    let succ =
      Array.init n (fun _ ->
          List.init (Srng.int rng 4) (fun _ -> Srng.int rng n)
          |> List.sort_uniq compare)
    in
    check_scc_invariants (Printf.sprintf "random %d" case)
      (Scc.condense ~n ~succ) ~succ
  done

(* ---- Workbag.Deque ------------------------------------------------------------- *)

let test_deque_basics () =
  let d = Workbag.Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Workbag.Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Workbag.Deque.steal d);
  for i = 1 to 100 do
    Workbag.Deque.push d i
  done;
  Alcotest.(check int) "length" 100 (Workbag.Deque.length d);
  (* owner pops the front (oldest = most bottom-up) *)
  Alcotest.(check (option int)) "pop oldest" (Some 1) (Workbag.Deque.pop d);
  (* thief steals the back (newest = most caller-ward) *)
  Alcotest.(check (option int)) "steal newest" (Some 100) (Workbag.Deque.steal d);
  Alcotest.(check int) "steal counter" 1 (Workbag.Deque.stolen d);
  (* drain alternating and confirm nothing is lost or duplicated *)
  let got = ref [ 1; 100 ] in
  let flip = ref true in
  let rec drain () =
    let next = if !flip then Workbag.Deque.pop d else Workbag.Deque.steal d in
    flip := not !flip;
    match next with
    | Some v ->
      got := v :: !got;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "drained exactly once each"
    (List.init 100 (fun i -> i + 1))
    (List.sort compare !got)

let test_deque_concurrent () =
  (* one producing owner, two thieves; every pushed value must be
     consumed exactly once.  Runs fine on a single core — domains
     timeslice. *)
  let d = Workbag.Deque.create () in
  let n = 2000 in
  let consumed = Array.make n 0 in
  let produced = Atomic.make 0 in
  let tally = Mutex.create () in
  let record v = Mutex.protect tally (fun () -> consumed.(v) <- consumed.(v) + 1) in
  let thief () =
    let rec go () =
      match Workbag.Deque.steal d with
      | Some v ->
        record v;
        go ()
      | None -> if Atomic.get produced < n then (Domain.cpu_relax (); go ())
    in
    go ()
  in
  let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
  for i = 0 to n - 1 do
    Workbag.Deque.push d i;
    Atomic.incr produced;
    if i land 7 = 0 then
      match Workbag.Deque.pop d with Some v -> record v | None -> ()
  done;
  let rec drain () =
    match Workbag.Deque.pop d with
    | Some v ->
      record v;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join t1;
  Domain.join t2;
  drain ();
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d once" i) 1 c)
    consumed

(* ---- digest equality: parallel == sequential ------------------------------------ *)

(* The sharded solver has no product caller, so these tests call it
   directly, each solve on a freshly built graph (the pipeline is
   deterministic, so node ids line up). *)
let graph_of ~file src =
  Engine.build_graph (Engine.compile (Engine.load_string ~file src))

(* Every node's CI pairs in canonical order: the sharded fixpoint must
   equal the sequential one node by node. *)
let ci_node_pairs g ci =
  List.init (Vdg.n_nodes g) (fun nid ->
      Ptpair.Set.fold (fun p acc -> Ptpair.to_string p :: acc)
        (Ci_solver.pairs ci nid) []
      |> List.sort compare)

let assert_par_equals_seq label ~file src =
  let g = graph_of ~file src in
  let seq = ci_node_pairs g (Ci_solver.solve g) in
  List.iter
    (fun jobs ->
      let g = graph_of ~file src in
      let par, _ = Par_solver.solve ~jobs g in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "%s: %d domains == sequential" label jobs)
        seq (ci_node_pairs g par))
    [ 2; 8 ]

let test_examples_digest_equality () =
  List.iter
    (fun path -> assert_par_equals_seq path ~file:path (read_file path))
    (example_files ())

(* 50 fixed-seed generated programs across the generator's shape space;
   deterministic by construction (Srng is seeded from the profile name). *)
let battery_profiles =
  List.init 50 (fun i ->
      let lines = 160 + (i * 17 mod 420) in
      let p =
        Profile.default ~name:(Printf.sprintf "parbat%d" i) ~target_lines:lines
      in
      match i mod 5 with
      | 0 -> { p with Profile.string_heavy = true }
      | 1 -> { p with Profile.use_funptr = true; n_stashers = 2 }
      | 2 ->
        { p with Profile.multi_target = false; list_exchange = true;
          n_list_types = 2 }
      | 3 -> { p with Profile.call_depth = Some 5; fan_in = 2 }
      | _ -> p)

let test_generated_digest_equality () =
  List.iter
    (fun profile ->
      let label = profile.Profile.name in
      assert_par_equals_seq label ~file:(label ^ ".c") (Genc.generate profile))
    battery_profiles

(* the CS solve run over the merged CI solution must agree too: merged
   state is a complete, ordinary Ci_solver.t *)
let cs_node_quals g cs =
  let actx = Cs_solver.assumption_ctx cs in
  let aset_string aset =
    List.map
      (fun aid ->
        let node, pair = Assumption.describe actx aid in
        Printf.sprintf "(n%d %s)" node (Ptpair.to_string pair))
      (Assumption.elements aset)
    |> List.sort compare |> String.concat ","
  in
  List.init (Vdg.n_nodes g) (fun nid ->
      List.map
        (fun (p, chains) ->
          Ptpair.to_string p ^ " :: "
          ^ String.concat " | " (List.sort compare (List.map aset_string chains)))
        (Cs_solver.qualified cs nid)
      |> List.sort compare)

let test_full_digest_over_parallel_ci () =
  let src = Suite.source (Option.get (Suite.find "allroots")) in
  let g_seq = graph_of ~file:"allroots.c" src in
  let ci_seq = Ci_solver.solve g_seq in
  let g_par = graph_of ~file:"allroots.c" src in
  let ci_par, _ = Par_solver.solve ~jobs:4 g_par in
  Alcotest.(check (list (list string)))
    "ci pairs identical" (ci_node_pairs g_seq ci_seq) (ci_node_pairs g_par ci_par);
  Alcotest.(check (list (list string)))
    "cs over the merged ci identical"
    (cs_node_quals g_seq (Cs_solver.solve g_seq ~ci:ci_seq))
    (cs_node_quals g_par (Cs_solver.solve g_par ~ci:ci_par))

(* the linux preset must actually hit the advertised scale *)
let test_linux_preset_scale () =
  let p = Profile.linux ~target_lines:100_000 in
  let src = Genc.generate p in
  Alcotest.(check bool)
    "linux profile reaches 100k lines" true
    (Genc.line_count src >= 100_000);
  (* generation is deterministic *)
  Alcotest.(check string) "deterministic" src (Genc.generate p)

let tests =
  [
    Alcotest.test_case "scc shapes" `Quick test_scc_shapes;
    Alcotest.test_case "scc random battery" `Quick test_scc_random;
    Alcotest.test_case "deque basics" `Quick test_deque_basics;
    Alcotest.test_case "deque concurrent" `Quick test_deque_concurrent;
    Alcotest.test_case "examples: digest equality" `Quick
      test_examples_digest_equality;
    Alcotest.test_case "generated battery: digest equality" `Slow
      test_generated_digest_equality;
    Alcotest.test_case "full digest over parallel ci" `Quick
      test_full_digest_over_parallel_ci;
    Alcotest.test_case "linux preset scale" `Slow test_linux_preset_scale;
  ]
