(* Lint every C fixture under examples/c/ with the full checker suite,
   comparing CI and CS verdicts, and validate the SARIF rendering of each
   report.  Run under `dune runtest`, this is the executable counterpart
   of the acceptance criteria: valid SARIF for every example, and an
   empty CI-vs-CS verdict delta (the paper's Section 6 result lifted to
   the client level). *)

let fixtures dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* checkers expected to fire on each fixture; files not listed must be
   clean.  Keyed by basename so the table reads like the directory. *)
let expected =
  [
    ("clean.c", []);
    ("conflict.c", [ "conflict" ]);
    ("dangling.c", [ "dangling-pointer" ]);
    ("deadstore.c", [ "dead-store" ]);
    ("null_deref.c", [ "null-deref" ]);
    ("uninit.c", [ "uninit-read" ]);
  ]

let () =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAIL %s\n" msg)
      fmt
  in
  let files = fixtures "c" in
  if files = [] then (
    print_endline "FAIL no C fixtures found under examples/c/";
    exit 1);
  List.iter
    (fun file ->
      let input = Engine.load_file file in
      let td = Result.get_ok (Engine.analyze Engine.default_request input) in
      let a = Option.get td.Engine.td_analysis in
      let r = Lint.run ~compare_cs:true a in
      (* 1. SARIF output must satisfy the structural schema check *)
      let sarif = Lint.to_sarif r in
      (match Diag.validate_sarif sarif with
      | [] -> ()
      | errs ->
        List.iter (fun e -> fail "%s: invalid SARIF: %s" file e) errs);
      (* 2. CI and CS must agree on every diagnostic *)
      let delta = Lint.delta_count r in
      if delta <> 0 then
        fail "%s: %d diagnostic(s) with differing CI/CS verdicts" file delta;
      (* 3. exactly the expected checkers fire *)
      let fired =
        List.sort_uniq String.compare
          (List.map (fun (d, _) -> d.Diag.d_checker) r.Lint.rp_diags)
      in
      (match List.assoc_opt (Filename.basename file) expected with
      | Some want ->
        let want = List.sort String.compare want in
        if fired <> want then
          fail "%s: checkers fired %s, expected %s" file
            (String.concat "," fired) (String.concat "," want)
      | None ->
        if fired <> [] then
          fail "%s: unexpected diagnostics from %s" file
            (String.concat "," fired));
      Printf.printf "lint %-24s %d diagnostic(s), delta %d, SARIF ok\n" file
        (List.length r.Lint.rp_diags) delta)
    files;
  if !failures > 0 then (
    Printf.printf "%d failure(s)\n" !failures;
    exit 1)
