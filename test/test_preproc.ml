(* Preprocessor tests: defines, function-like macros, conditionals. *)

let pp ?defines src = Preproc.run ?defines ~file:"p.c" src

(* compare token streams, since the preprocessor manipulates text *)
let toks src = List.map (fun t -> t.Token.kind) (Lexer.tokenize ~file:"p.c" src)

let check_expands msg expected src =
  Alcotest.(check bool) msg true (toks (pp src) = toks expected)

let object_macro () =
  check_expands "simple" "int x = 4;" "#define N 4\nint x = N;";
  check_expands "multiple uses" "int a = 4 + 4;" "#define N 4\nint a = N + N;"

let identifier_boundaries () =
  check_expands "no substring capture" "int NN = 1; int xN = 2;"
    "#define N 4\nint NN = 1; int xN = 2;"

let no_expansion_in_strings () =
  check_expands "strings untouched" "char *s = \"N\";"
    "#define N 4\nchar *s = \"N\";";
  check_expands "chars untouched" "int c = 'N';" "#define N 4\nint c = 'N';"

let function_macro () =
  check_expands "square" "int x = ((3) * (3));"
    "#define SQ(a) ((a) * (a))\nint x = SQ(3);";
  check_expands "two args" "int x = (1 + 2);"
    "#define ADD(a, b) (a + b)\nint x = ADD(1, 2);";
  check_expands "nested parens in arg" "int x = ((f(1, 2)) * 2);"
    "#define DBL(a) ((a) * 2)\nint x = DBL(f(1, 2));"

let function_macro_without_args_is_plain () =
  check_expands "no call no expansion" "int SQ = 3; int y = ((2) * (2));"
    "#define SQ(a) ((a) * (a))\nint SQ = 3; int y = SQ(2);"

let nested_macros () =
  check_expands "macro in macro" "int x = 8;"
    "#define A 8\n#define B A\nint x = B;"

let self_reference_terminates () =
  (* recursive self-expansion must be cut off, not loop *)
  let out = pp "#define X X\nint X = 1;" in
  Alcotest.(check bool) "terminates with X intact" true
    (toks out = toks "int X = 1;")

let undef () =
  check_expands "undef stops expansion" "int a = 4; int b = N;"
    "#define N 4\nint a = N;\n#undef N\nint b = N;"

let ifdef_basic () =
  check_expands "taken" "int yes;" "#define F 1\n#ifdef F\nint yes;\n#endif";
  check_expands "not taken" "" "#ifdef F\nint no;\n#endif";
  check_expands "ifndef" "int yes;" "#ifndef F\nint yes;\n#endif"

let ifdef_else () =
  check_expands "else branch" "int no;" "#ifdef F\nint yes;\n#else\nint no;\n#endif";
  check_expands "then branch" "int yes;"
    "#define F 1\n#ifdef F\nint yes;\n#else\nint no;\n#endif"

let ifdef_nested () =
  check_expands "nested suppression" "int a;"
    "#define A 1\n#ifdef A\nint a;\n#ifdef B\nint b;\n#endif\n#endif";
  check_expands "outer dead kills inner live" ""
    "#define B 1\n#ifdef A\n#ifdef B\nint b;\n#endif\n#endif"

let defines_parameter () =
  let out = pp ~defines:[ ("MODE", "3") ] "int m = MODE;" in
  Alcotest.(check bool) "seeded define" true (toks out = toks "int m = 3;")

let include_ignored () =
  check_expands "include dropped" "int x;" "#include <stdio.h>\nint x;"

let line_structure_preserved () =
  let out = pp "#define N 1\nint a;\nint b;" in
  Alcotest.(check int) "line count preserved" 4
    (List.length (String.split_on_char '\n' out))

let preproc_errors () =
  let expect_error src =
    match pp src with
    | exception Srcloc.Error _ -> ()
    | _ -> Alcotest.fail ("expected preproc error on: " ^ src)
  in
  expect_error "#endif";
  expect_error "#else";
  expect_error "#ifdef X\nint a;";
  expect_error "#bogus directive";
  expect_error "#define F(a, b) a\nint x = F(1);"  (* arity mismatch *)

(* The 41-line bomb hits the expansion cap long before its 2^39 copies:
   a located error, in well under a second of expansion work. *)
let macro_bomb_capped () =
  let t0 = Unix.gettimeofday () in
  (match pp (Test_util.macro_bomb 39) with
  | exception Srcloc.Error (loc, msg) ->
    Alcotest.(check int) "reported at the use" 41 loc.Srcloc.line;
    Alcotest.(check bool)
      ("names the cause: " ^ msg) true
      (String.starts_with ~prefix:"macro expansion too large" msg)
  | _ -> Alcotest.fail "a depth-39 macro bomb must not expand");
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "fails fast (%.2fs)" took) true (took < 10.);
  (* a chain short enough to stay under the cap still expands in full:
     1024 copies of x, plus the declaration's own *)
  Alcotest.(check int)
    "depth 10 expands" 1025
    (List.length
       (List.filter (( = ) (Token.Ident "x")) (toks (pp (Test_util.macro_bomb 10)))))

(* The CLI end of the same input: exit 1 with a one-line diagnosis.  Runs
   the built analyzer, which dune places next to this test's directory. *)
let analyze_reports_macro_bomb () =
  let exe = "../bin/analyze.exe" in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let src = Filename.temp_file "bomb" ".c" in
  let err = Filename.temp_file "bomb" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; err ])
    (fun () ->
      Out_channel.with_open_bin src (fun oc ->
          output_string oc (Test_util.macro_bomb 39));
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Unix.create_process exe [| exe; "analyze"; src |] Unix.stdin null err_fd
      in
      Unix.close null;
      Unix.close err_fd;
      (* a regression would hang: give up (and kill it) after 30 s *)
      let rec wait n =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when n > 0 ->
          Unix.sleepf 0.05;
          wait (n - 1)
        | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "analyze did not finish within 30 s"
        | _, status -> status
      in
      Alcotest.(check bool) "exit 1" true (wait 600 = Unix.WEXITED 1);
      match String.split_on_char '\n' (String.trim (Test_util.read_file err)) with
      | [ line ] ->
        Alcotest.(check bool)
          ("one-line frontend error: " ^ line) true
          (String.ends_with ~suffix:"macro expansion too large (over 4194304 bytes)"
             line)
      | lines -> Alcotest.failf "expected one line, got %d" (List.length lines))

let tests =
  [
    Alcotest.test_case "object macro" `Quick object_macro;
    Alcotest.test_case "identifier boundaries" `Quick identifier_boundaries;
    Alcotest.test_case "strings untouched" `Quick no_expansion_in_strings;
    Alcotest.test_case "function macro" `Quick function_macro;
    Alcotest.test_case "function macro w/o args" `Quick function_macro_without_args_is_plain;
    Alcotest.test_case "nested macros" `Quick nested_macros;
    Alcotest.test_case "self reference" `Quick self_reference_terminates;
    Alcotest.test_case "undef" `Quick undef;
    Alcotest.test_case "ifdef" `Quick ifdef_basic;
    Alcotest.test_case "ifdef/else" `Quick ifdef_else;
    Alcotest.test_case "nested ifdef" `Quick ifdef_nested;
    Alcotest.test_case "seeded defines" `Quick defines_parameter;
    Alcotest.test_case "include ignored" `Quick include_ignored;
    Alcotest.test_case "line structure" `Quick line_structure_preserved;
    Alcotest.test_case "errors" `Quick preproc_errors;
    Alcotest.test_case "macro bomb hits the expansion cap" `Quick macro_bomb_capped;
    Alcotest.test_case "analyze reports a macro bomb in one line" `Quick
      analyze_reports_macro_bomb;
  ]
