(* The repository's benchmark: end-to-end numbers for the CLI and the
   query server, taken from outside the analyzer, plus an optional traced
   replay that splits them by layer.  See benchmark/README.md.

     bench.exe [--workload W]... [--seed S] [--seconds S] [--runs N]
               [--trace 0|1|FILE] [--json FILE]
               [--analyze PATH] [--pins FILE] [--workdir DIR]
               [--programs a,b,...] [--edits N]

   It prints every metric by name with its unit and, as its last line,
   one JSON object {correct, attempted, failed, metrics}; it exits 1 when
   any output is wrong. *)

(* The end-to-end metrics, as in BENCHMARK.json. *)
let e2e_units =
  [ ("setup_s", "s"); ("p50_ms", "ms"); ("tail_ms", "ms"); ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB") ]

let usage () =
  prerr_endline
    "usage: bench.exe [--workload suite|linux100k|ide-bc|serve-warm]... [--seed S]\n\
    \                 [--seconds S] [--runs N] [--trace 0|1|FILE] [--json FILE]\n\
    \                 [--analyze PATH] [--pins FILE] [--workdir DIR]\n\
    \                 [--programs a,b,...] [--edits N]";
  exit 2

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable runs : int;
  mutable trace : [ `Off | `Default | `File of string ];
  mutable json : string option;
  mutable analyze : string;
  mutable pins : string;
  mutable workdir : string;
  mutable programs : string array;
  mutable edits : int;
}

let parse args =
  let o =
    {
      workloads = [];
      seed = 1995;
      seconds = 10.;
      runs = 1;
      trace = `Off;
      json = None;
      analyze = "_build/default/bin/analyze.exe";
      pins = "benchmark/pins.json";
      workdir = "_benchmark";
      programs = Workloads.suite_programs;
      edits = 5;
    }
  in
  let int v = match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Workloads.workloads ->
      o.workloads <- o.workloads @ [ w ];
      go rest
    | "--seed" :: v :: rest -> o.seed <- int v; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> o.seconds <- s
      | _ -> usage ());
      go rest
    | "--runs" :: v :: rest -> o.runs <- max 1 (int v); go rest
    | "--trace" :: "0" :: rest -> o.trace <- `Off; go rest
    | "--trace" :: "1" :: rest -> o.trace <- `Default; go rest
    | "--trace" :: f :: rest -> o.trace <- `File f; go rest
    | "--json" :: f :: rest -> o.json <- Some f; go rest
    | "--analyze" :: f :: rest -> o.analyze <- f; go rest
    | "--pins" :: f :: rest -> o.pins <- f; go rest
    | "--workdir" :: d :: rest -> o.workdir <- d; go rest
    | "--programs" :: l :: rest ->
      o.programs <- Array.of_list (String.split_on_char ',' l);
      if not (Array.for_all (fun p -> Array.mem p Workloads.suite_programs) o.programs) then usage ();
      go rest
    | "--edits" :: v :: rest -> o.edits <- max 1 (int v); go rest
    | _ -> usage ()
  in
  go args;
  if o.workloads = [] then o.workloads <- Workloads.workloads;
  o

let read_pins path =
  match Ejson.of_string (Workloads.read_file path) with
  | Ejson.Assoc kvs ->
    List.filter_map (fun (k, v) -> match v with Ejson.String s -> Some (k, s) | _ -> None) kvs
  | _ -> failwith (path ^ ": pins must be a JSON object")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* A metric row: name, value, unit. *)
type row = string * float * string

let value (rows : row list) name =
  match List.find_opt (fun (n, _, _) -> n = name) rows with Some (_, v, _) -> v | None -> 0.

let result_line ~correct ~attempted ~failed (rows : row list) =
  Ejson.to_compact_string
    (Ejson.Assoc
       [
         ("correct", Ejson.Bool correct);
         ("attempted", Ejson.Int attempted);
         ("failed", Ejson.Int failed);
         ( "metrics",
           Ejson.Assoc
             (List.map
                (fun (name, v, unit_) ->
                  (name, Ejson.Assoc [ ("value", Ejson.Float v); ("unit", Ejson.String unit_) ]))
                rows) );
       ])

let print_rows title (rows : row list) =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit_) -> Printf.printf "  %-26s %16.6f %s\n" name v unit_) rows

type measured = {
  result : Workloads.result;
  e2e : row list;
  layer : row list option;  (* the traced replay's per-layer metrics *)
}

(* One workload, one run: measure, check, optionally replay traced. *)
let run_one ctx ~traced ~run ~runs w =
  Printf.printf "== %s (seed %d, run %d/%d, %g s window%s) ==\n%!" w ctx.Workloads.seed run runs
    ctx.Workloads.seconds (if traced then ", traced" else "");
  let r = Workloads.run ctx w in
  let e2e = List.map (fun (n, u) -> (n, List.assoc n r.Workloads.metrics, u)) e2e_units in
  print_rows "end to end (untraced):" e2e;
  print_rows "details:" r.Workloads.details;
  let layer =
    if traced then begin
      let layer, notes = Layers.run ctx r in
      let rows = List.map (fun (n, v) -> (n, v, List.assoc n Layers.metric_units)) layer in
      print_rows "per layer (traced replay):" rows;
      List.iter (fun n -> Printf.printf "  %s\n" n) notes;
      Some rows
    end
    else None
  in
  Printf.printf "attempted %d, failed %d (error_rate %g)\n" r.Workloads.attempted
    r.Workloads.failed
    (float_of_int r.Workloads.failed /. float_of_int (max 1 r.Workloads.attempted));
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.Workloads.problems;
  print_endline
    (result_line ~correct:(r.Workloads.failed = 0) ~attempted:r.Workloads.attempted
       ~failed:r.Workloads.failed (Option.value ~default:e2e layer));
  flush stdout;
  { result = r; e2e; layer }

(* --runs N: each end-to-end metric's median, quartiles and range per
   workload, then a result line of medians for the last workload run. *)
let spread results =
  List.iter
    (fun w ->
      let mine = List.filter (fun m -> m.result.Workloads.workload = w) results in
      if mine <> [] then begin
        Printf.printf "== %s: %d runs ==\n" w (List.length mine);
        Printf.printf "  %-14s %12s %12s %12s %12s %12s %8s\n" "metric" "median" "q1" "q3"
          "min" "max" "iqr/med";
        List.iter
          (fun (name, unit_) ->
            let vs = List.map (fun m -> value m.e2e name) mine in
            let q1, q2, q3 = Sample.quartiles vs in
            Printf.printf "  %-14s %12.4f %12.4f %12.4f %12.4f %12.4f %7.2f%% %s\n" name q2 q1 q3
              (List.fold_left Float.min infinity vs) (Sample.max_of vs)
              (100. *. (q3 -. q1) /. q2) unit_)
          e2e_units
      end)
    Workloads.workloads;
  let last = (List.hd (List.rev results)).result.Workloads.workload in
  let mine = List.filter (fun m -> m.result.Workloads.workload = last) results in
  let sum f = List.fold_left (fun a m -> a + f m.result) 0 mine in
  let failed = sum (fun r -> r.Workloads.failed) in
  print_endline
    (result_line ~correct:(failed = 0) ~attempted:(sum (fun r -> r.Workloads.attempted)) ~failed
       (List.map
          (fun (n, u) -> (n, Sample.median (List.map (fun m -> value m.e2e n) mine), u))
          e2e_units))

let write_json path ~seed ~seconds results =
  let obj (rows : row list) = Ejson.Assoc (List.map (fun (n, v, _) -> (n, Ejson.Float v)) rows) in
  let json =
    Ejson.Assoc
      [
        ("seed", Ejson.Int seed);
        ("seconds", Ejson.Float seconds);
        ( "runs",
          Ejson.List
            (List.map
               (fun m ->
                 let r = m.result in
                 Ejson.Assoc
                   ([
                      ("workload", Ejson.String r.Workloads.workload);
                      ("attempted", Ejson.Int r.Workloads.attempted);
                      ("failed", Ejson.Int r.Workloads.failed);
                      ("metrics", obj m.e2e);
                      ("details", obj r.Workloads.details);
                    ]
                   @ match m.layer with Some l -> [ ("layers", obj l) ] | None -> []))
               results) );
      ]
  in
  Workloads.write_file path (Ejson.to_string json ^ "\n")

let main args =
  let o = parse args in
  let cwd = Sys.getcwd () in
  let abs p = if Filename.is_relative p then Filename.concat cwd p else p in
  let analyze = abs o.analyze in
  if not (Sys.file_exists analyze) then begin
    Printf.eprintf "bench: no analyze binary at %s (build it first)\n" analyze;
    exit 2
  end;
  let pins = read_pins (abs o.pins) in
  let trace =
    match o.trace with
    | `Off -> None
    | `Default -> Some (abs (Filename.concat o.workdir "trace.json"))
    | `File f -> Some (abs f)
  in
  let json = Option.map abs o.json in
  mkdir_p o.workdir;
  Sys.chdir o.workdir;
  let ctx =
    {
      Workloads.analyze;
      seed = o.seed;
      seconds = o.seconds;
      programs = o.programs;
      edits = o.edits;
      pins;
    }
  in
  let results =
    List.concat
      (List.init o.runs (fun i ->
           (* alternate the order so no workload always runs first *)
           let order = if i mod 2 = 0 then o.workloads else List.rev o.workloads in
           List.map (fun w -> run_one ctx ~traced:(trace <> None) ~run:(i + 1) ~runs:o.runs w) order))
  in
  Option.iter Trace.write trace;
  Option.iter (fun path -> write_json path ~seed:o.seed ~seconds:o.seconds results) json;
  if o.runs > 1 then spread results;
  if List.exists (fun m -> m.result.Workloads.failed > 0) results then exit 1

(* `bench.exe alloc MB`: allocate and touch MB MiB, for the peak-RSS test. *)
let alloc mb =
  let b = Bytes.make (mb * 1048576) 'x' in
  Printf.printf "%d\n" (Bytes.length b)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "stage" :: file :: flags ->
    let rec par = function "--par" :: n :: _ -> int_of_string n | _ :: r -> par r | [] -> 0 in
    Layers.stage_main file ~cs:(List.mem "--cs" flags) ~par:(par flags)
  | [ "alloc"; mb ] -> alloc (int_of_string mb)
  | args -> (
    try main args
    with e ->
      Printf.eprintf "bench: %s\n" (Printexc.to_string e);
      exit 1)
