(* Helpers shared by the test suites. *)

(* The analysis of an Engine.analyze request; an unbudgeted exhaustive
   request always reaches the ci tier, so anything else fails the test. *)
let analysis ?config ?cache ?(req = Engine.default_request) input =
  match Engine.analyze ?config ?cache req input with
  | Ok { Engine.td_analysis = Some a; _ } -> a
  | Ok td ->
    Alcotest.failf "no analysis at tier %s"
      (Engine.string_of_tier td.Engine.td_tier)
  | Error e -> Alcotest.fail (Engine.error_message e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A macro bomb of [depth + 2] lines: A0 is one token and each Ai is
   A(i-1) twice, so the last line's A[depth] would expand to 2^depth
   copies of x. *)
let macro_bomb depth =
  let b = Buffer.create 1024 in
  Buffer.add_string b "#define A0 x\n";
  for i = 1 to depth do
    Printf.bprintf b "#define A%d A%d + A%d\n" i (i - 1) (i - 1)
  done;
  Printf.bprintf b "int x; int main(void) { return A%d; }\n" depth;
  Buffer.contents b

let example_files () =
  let dir = "../examples/c" in
  let dir = if Sys.file_exists dir then dir else "examples/c" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

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

(* (file name, source) for the example programs, the paper's suite and
   the generated battery *)
let solver_subjects ?(battery = battery_profiles) () =
  List.map (fun path -> (path, read_file path)) (example_files ())
  @ List.map
      (fun (e : Suite.entry) -> (e.Suite.profile.Profile.name ^ ".c", Suite.source e))
      Suite.benchmarks
  @ List.map
      (fun profile -> (profile.Profile.name ^ ".c", Genc.generate profile))
      battery
