(* What remains of the parallel-solver tests: the SCC condensation the
   incremental engine's dependence graph runs on, and the scale of the
   linux preset the benchmark generates. *)

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
    Alcotest.test_case "linux preset scale" `Slow test_linux_preset_scale;
  ]
