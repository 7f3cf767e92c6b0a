(* Tests of the harness itself, run by `dune runtest`:

     test_bench.exe BENCH ANALYZE PINS

   - a seconds-long slice (suite on allroots and part, ide-bc with 5
     edits so the revert to the base text is checked too, a 1 s
     serve-warm window), traced: it must pass its own
     output checks, and its result line and trace file have the promised
     shape;
   - peak RSS read through wait4 sees a child's 200 MiB;
   - the same seed gives byte-identical inputs, another seed different ones;
   - a planted wrong pin makes the benchmark exit 1. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let last_line path =
  match List.rev (String.split_on_char '\n' (String.trim (Workloads.read_file path))) with
  | l :: _ -> l
  | [] -> ""

let () =
  let bench, analyze, pins =
    match Sys.argv with
    | [| _; b; a; p |] ->
      let abs f = if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f else f in
      (abs b, abs a, p)
    | _ ->
      prerr_endline "usage: test_bench.exe BENCH ANALYZE PINS";
      exit 2
  in
  let smoke_out = "smoke.out" and smoke_trace = "smoke-trace.json" in
  let smoke =
    Proc.run ~stdout:smoke_out bench
      [ "--analyze"; analyze; "--pins"; pins; "--workdir"; "_smoke";
        "--workload"; "suite"; "--workload"; "ide-bc"; "--workload"; "serve-warm";
        "--programs"; "allroots,part"; "--edits"; "5"; "--seconds"; "1";
        "--trace"; smoke_trace ]
  in
  check "smoke slice exits 0" (smoke.Proc.code = 0);
  (* peak RSS from outside *)
  let o = Proc.run bench [ "alloc"; "200" ] in
  check (Printf.sprintf "peak_rss_mb of a 200 MiB child is %.1f >= 200" o.Proc.rss_mb)
    (o.Proc.code = 0 && o.Proc.rss_mb >= 200.);
  (* seed determinism *)
  let gen = Proc.run ~stdout:"tb_bc.c" analyze [ "gen"; "bc" ] in
  check "analyze gen bc" (gen.Proc.code = 0);
  let bc = Workloads.read_file "tb_bc.c" in
  let script seed =
    List.concat_map
      (fun round ->
        let base = Gen.fresh_text ~seed ~round bc in
        base
        :: List.map
             (fun (e : Gen.edit) -> e.Gen.kind ^ "\n" ^ e.Gen.text)
             (Gen.edit_script ~seed ~round ~edits:5 base)
        @ List.map
            (fun (a, b) -> Printf.sprintf "%d,%d" a b)
            (Gen.probes ~seed ~round ~count:6 [| 10; 20; 30; 40; 50 |]))
      [ 1; 2; 3 ]
  in
  let targets =
    Array.init 3 (fun i ->
        {
          Gen.file = Printf.sprintf "p%d.c" i;
          session = Printf.sprintf "s%d" i;
          nodes = Array.init 20 (fun k -> (100 * i) + k);
          lines = [||];
          functions = [| "f"; "g"; "h" |];
        })
  in
  let stream seed =
    let st = Gen.query_rng ~seed in
    List.init 2000 (fun id ->
        let meth, params = Gen.next_query st targets in
        Wire.request_line ~id meth params)
    @ Array.to_list (Gen.suite_order ~seed ~pass:0 Workloads.suite_programs)
  in
  check "same seed: identical edit scripts and probes" (script 1995 = script 1995);
  check "another seed: different edit scripts" (script 1995 <> script 1996);
  check "same seed: identical request stream" (stream 1995 = stream 1995);
  check "another seed: different request stream" (stream 1995 <> stream 1996);
  check "edits never move a line of the base text"
    (let base = Gen.fresh_text ~seed:1995 ~round:1 bc in
     let base_lines = Array.of_list (String.split_on_char '\n' base) in
     List.for_all
       (fun (e : Gen.edit) ->
         let lines = Array.of_list (String.split_on_char '\n' e.Gen.text) in
         Array.length lines >= Array.length base_lines
         && Array.for_all Fun.id
              (Array.mapi
                 (fun i l -> i = Array.length base_lines - 1 || String.starts_with ~prefix:l lines.(i))
                 base_lines))
       (Gen.edit_script ~seed:1995 ~round:1 ~edits:20 base));
  (* a planted wrong pin *)
  let good = Workloads.read_file pins in
  let planted =
    match Ejson.of_string good with
    | Ejson.Assoc kvs ->
      Ejson.Assoc
        (List.map
           (fun (k, v) -> if k = "allroots" then (k, Ejson.String (String.make 32 '0')) else (k, v))
           kvs)
    | _ -> Ejson.Null
  in
  Workloads.write_file "tb_badpins.json" (Ejson.to_string planted);
  let bad =
    Proc.run ~stdout:"tb_badpins.out" bench
      [ "--analyze"; analyze; "--pins"; "tb_badpins.json"; "--workdir"; "_badpin";
        "--workload"; "suite"; "--programs"; "allroots"; "--seconds"; "0.1" ]
  in
  check "a wrong pin exits 1" (bad.Proc.code = 1);
  check "a wrong pin reports correct:false"
    (match Ejson.member "correct" (Ejson.of_string (last_line "tb_badpins.out")) with
    | Some (Ejson.Bool false) -> true
    | _ -> false);
  (* the smoke run's outputs *)
  let result = Ejson.of_string (last_line smoke_out) in
  check "smoke result line has exactly correct/attempted/failed/metrics"
    (Ejson.keys result = [ "correct"; "attempted"; "failed"; "metrics" ]);
  check "smoke run is correct"
    (Ejson.member "correct" result = Some (Ejson.Bool true));
  let events =
    match Ejson.member "traceEvents" (Ejson.of_string (Workloads.read_file smoke_trace)) with
    | Some (Ejson.List l) -> l
    | _ -> []
  in
  check "trace file holds complete events"
    (events <> []
    && List.for_all
         (fun e ->
           Ejson.member "ph" e = Some (Ejson.String "X")
           && List.for_all (fun k -> Ejson.member k e <> None) [ "name"; "ts"; "dur"; "pid"; "tid"; "args" ])
         events);
  let names = List.filter_map (fun e -> match Ejson.member "name" e with Some (Ejson.String n) -> Some n | _ -> None) events in
  List.iter
    (fun n -> check ("trace has " ^ n ^ " spans") (List.mem n names))
    [ "cfront.parse"; "ci.solve"; "cs.solve"; "digest.ci"; "incr.update"; "session.open";
      "session.update"; "protocol.decode"; "handler.may_alias"; "handler.open" ];
  if !failures > 0 then exit 1
