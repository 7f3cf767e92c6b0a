(* Dyck solver tests: the tier must sit exactly between Ci and Andersen
   in the precision ladder.

   - ci ⊆ dyck, pair for pair: every CI-derivable pair on a value output
     is Dyck-derivable, every CI store pair (on any store-typed output)
     is in the global store relation, and every CI referenced location at
     a memop is a Dyck referenced location.
   - dyck ⊆ andersen at memory operations, bridged through source
     positions and base projections like the CI/baseline ordering test.
   - the solution is independent of the worklist schedule. *)

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

let build_graph ~file src = Vdg_build.build (Norm.compile ~file src)

let pair_strings set =
  List.sort compare (List.map Ptpair.to_string (Ptpair.Set.elements set))

let is_store_output (n : Vdg.node) = n.Vdg.ntype = Vdg.Vstore

(* ---- precision sandwich, lower bound: ci ⊆ dyck ----------------------------------- *)

let assert_ci_subset_dyck label g ci dy =
  Vdg.iter_nodes g (fun (n : Vdg.node) ->
      let cip = Ci_solver.pairs ci n.Vdg.nid in
      if is_store_output n then
        (* CI threads a store value here; the Dyck tier collapses all of
           them into one global relation, which must cover each *)
        Ptpair.Set.iter
          (fun p ->
            if not (Ptpair.Set.mem (Dyck_solver.pairs dy n.Vdg.nid) p)
               && not
                    (List.exists (Ptpair.equal p) (Dyck_solver.store_pairs dy))
            then
              Alcotest.fail
                (Printf.sprintf "%s: CI store pair %s not in dyck gstore (node %d)"
                   label (Ptpair.to_string p) n.Vdg.nid))
          cip
      else begin
        let dyp = Dyck_solver.pairs dy n.Vdg.nid in
        Ptpair.Set.iter
          (fun p ->
            if not (Ptpair.Set.mem dyp p) then
              Alcotest.fail
                (Printf.sprintf "%s: CI pair %s not in dyck (node %d, %s)" label
                   (Ptpair.to_string p) n.Vdg.nid
                   (Vdg.string_of_kind n.Vdg.nkind)))
          cip
      end);
  List.iter
    (fun ((n : Vdg.node), _) ->
      let dlocs = Dyck_solver.referenced_locations dy n.Vdg.nid in
      List.iter
        (fun l ->
          if not (List.exists (Apath.equal l) dlocs) then
            Alcotest.fail
              (Printf.sprintf "%s: CI referenced %s missing in dyck (memop %d)"
                 label (Apath.to_string l) n.Vdg.nid))
        (Ci_solver.referenced_locations ci n.Vdg.nid))
    (Vdg.memops g)

(* ---- precision sandwich, upper bound: dyck ⊆ andersen ----------------------------- *)

(* Bridged like the CI/baseline ordering test: project dyck's referenced
   locations at each indirect operation to their bases and require each
   in Andersen's record at the same position.  Positions with no
   baseline record are skipped (the baselines track pointer dereferences
   only). *)
let assert_dyck_subset_andersen label prog g dy =
  let andersen = Andersen.analyze prog in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      match Vdg.loc_of g n.Vdg.nid with
      | None -> ()
      | Some loc ->
        let a_locs = Andersen.memop_locations andersen loc rw in
        if a_locs <> [] then
          List.iter
            (fun (p : Apath.t) ->
              let b = Absloc.of_base (Option.get p.Apath.proot) in
              if not (List.exists (Absloc.equal b) a_locs) then
                Alcotest.fail
                  (Printf.sprintf "%s: dyck base %s at %s not in Andersen [%s]"
                     label (Absloc.to_string b) (Srcloc.to_string loc)
                     (String.concat ";" (List.map Absloc.to_string a_locs))))
            (Dyck_solver.referenced_locations dy n.Vdg.nid))
    (Vdg.indirect_memops g)

let test_sandwich_examples () =
  List.iter
    (fun path ->
      let src = read_file path in
      let prog = Norm.compile ~file:path src in
      let g = Vdg_build.build prog in
      let ci = Ci_solver.solve g in
      let dy = Dyck_solver.solve g in
      assert_ci_subset_dyck path g ci dy;
      assert_dyck_subset_andersen path prog g dy)
    (example_files ())

(* the same ordering must show through the tier-agnostic Query views:
   a CI may-alias verdict is never refuted by the dyck tier *)
let test_views_never_refute_ci () =
  List.iter
    (fun path ->
      let g = build_graph ~file:path (read_file path) in
      let ci = Ci_solver.solve g in
      let dy = Dyck_solver.solve g in
      let civ = Query.ci_view ci and dv = Query.dyck_view dy in
      let nodes =
        List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid) (Vdg.indirect_memops g)
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Query.alias civ a b then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: dyck refutes ci alias %d %d" path a b)
                  true (Query.alias dv a b))
            nodes)
        nodes)
    (example_files ())

(* ---- schedule invariance ---------------------------------------------------------- *)

let workload_graph name =
  let entry = Option.get (Suite.find name) in
  build_graph ~file:(name ^ ".c") (Suite.source entry)

let test_schedule_invariance () =
  let g = workload_graph "anagram" in
  let reference = Dyck_solver.solve g in
  let memops =
    List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid) (Vdg.indirect_memops g)
  in
  List.iter
    (fun schedule ->
      let config = { Ci_solver.default_config with Ci_solver.schedule } in
      let d = Dyck_solver.solve ~config g in
      List.iter
        (fun nid ->
          Alcotest.(check (list string))
            (Printf.sprintf "node %d" nid)
            (pair_strings (Dyck_solver.pairs reference nid))
            (pair_strings (Dyck_solver.pairs d nid)))
        memops)
    [ Workbag.Fifo; Workbag.Lifo; Workbag.Random_order 3; Workbag.Random_order 99 ]

let tests =
  [
    Alcotest.test_case "precision sandwich on every example" `Quick
      test_sandwich_examples;
    Alcotest.test_case "Query views: dyck never refutes ci" `Quick
      test_views_never_refute_ci;
    Alcotest.test_case "schedule invariance (fifo/lifo/random)" `Quick
      test_schedule_invariance;
  ]
