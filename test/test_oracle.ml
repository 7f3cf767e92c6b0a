(* Differential soundness oracle tests.

   - zero violations, for every tier, on every hand-written example
     program and on a fixed-seed slice of the generated fuzz batch;
   - generated programs never trap (the generator's contract);
   - the batch is deterministic: same (seed, index), same program;
   - violations carry the full structured diff (exercised on a
     hand-built miss, since sound tiers never produce one). *)

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

let assert_clean r =
  (match r.Oracle.rp_trap with
  | Some m -> Alcotest.fail (r.Oracle.rp_program ^ ": interpreter trap: " ^ m)
  | None -> ());
  match r.Oracle.rp_violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.fail
      (Printf.sprintf "%s: %d violation(s), first: %s" r.Oracle.rp_program
         (List.length r.Oracle.rp_violations)
         (Oracle.string_of_violation v))

(* ---- all examples, all tiers ------------------------------------------------------ *)

(* Some examples (null_deref.c) trap by design — they exist to feed the
   bug checkers.  Soundness still holds over every observation made
   before the trap, so the oracle must report zero violations on all of
   them; the no-trap contract is asserted on generated programs only. *)
let test_examples_clean () =
  let files = example_files () in
  Alcotest.(check bool) "have example programs" true (files <> []);
  List.iter
    (fun path ->
      let name = Filename.remove_extension (Filename.basename path) in
      let r = Oracle.check_src ~name (read_file path) in
      (match r.Oracle.rp_violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail
          (Printf.sprintf "%s: %d violation(s), first: %s" name
             (List.length r.Oracle.rp_violations)
             (Oracle.string_of_violation v)));
      if r.Oracle.rp_trap = None then
        Alcotest.(check bool) (name ^ " ok") true (Oracle.ok r))
    files

(* ---- a fixed-seed slice of the fuzz batch ----------------------------------------- *)

let test_generated_clean () =
  let seed = 1995 in
  for i = 0 to 7 do
    let r = Oracle.check_generated ~seed i in
    assert_clean r;
    Alcotest.(check bool)
      (r.Oracle.rp_program ^ " observes something")
      true
      (r.Oracle.rp_observations > 0)
  done

(* generated programs must execute to completion: no trap, and the
   bounded loops must finish inside the default fuel *)
let test_generated_never_traps () =
  let seed = 7 in
  for i = 0 to 3 do
    let r = Oracle.check_generated ~seed i in
    (match r.Oracle.rp_trap with
    | Some m ->
      Alcotest.fail (r.Oracle.rp_program ^ ": generated program trapped: " ^ m)
    | None -> ());
    Alcotest.(check bool)
      (r.Oracle.rp_program ^ " finished in fuel")
      true
      (r.Oracle.rp_steps < Oracle.default_fuel)
  done

(* ---- batch determinism ------------------------------------------------------------ *)

let test_fuzz_profile_deterministic () =
  let a = Oracle.fuzz_profile ~seed:42 ~index:3 in
  let b = Oracle.fuzz_profile ~seed:42 ~index:3 in
  Alcotest.(check string) "same name" a.Profile.name b.Profile.name;
  Alcotest.(check string) "same program" (Genc.generate a) (Genc.generate b);
  let c = Oracle.fuzz_profile ~seed:42 ~index:4 in
  Alcotest.(check bool)
    "different slot, different program" true
    (Genc.generate a <> Genc.generate c)

(* ---- report shape ----------------------------------------------------------------- *)

let test_report_json_shape () =
  let r = Oracle.check_src ~seed:9 ~name:"clean_json" "int main() { return 0; }" in
  let j = Oracle.report_json r in
  (match Ejson.member "program" j with
  | Some (Ejson.String "clean_json") -> ()
  | _ -> Alcotest.fail "program field");
  (match Ejson.member "seed" j with
  | Some (Ejson.Int 9) -> ()
  | _ -> Alcotest.fail "seed field");
  (match Ejson.member "violations" j with
  | Some (Ejson.List []) -> ()
  | _ -> Alcotest.fail "violations field");
  Alcotest.(check int) "four tiers" 4 (List.length Oracle.tier_names)

let test_violation_rendering () =
  let v =
    {
      Oracle.vi_program = "p";
      vi_seed = Some 3;
      vi_tier = "andersen";
      vi_loc = Srcloc.{ file = "p.c"; line = 4; col = 2 };
      vi_rw = `Write;
      vi_observed = "g.f";
      vi_predicted = [ "h" ];
    }
  in
  let s = Oracle.string_of_violation v in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains needle))
    [ "andersen"; "g.f"; "write" ];
  match Ejson.member "tier" (Oracle.violation_json v) with
  | Some (Ejson.String "andersen") -> ()
  | _ -> Alcotest.fail "tier field"

let tests =
  [
    Alcotest.test_case "examples clean for every tier" `Slow test_examples_clean;
    Alcotest.test_case "generated batch clean for every tier" `Slow
      test_generated_clean;
    Alcotest.test_case "generated programs never trap" `Slow
      test_generated_never_traps;
    Alcotest.test_case "fuzz batch is deterministic" `Quick
      test_fuzz_profile_deterministic;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "violation rendering" `Quick test_violation_rendering;
  ]
