(* alias-analyze: command-line front door to the library.

   Subcommands:
     analyze <file.c>   parse, analyze, and report points-to facts
     tables [names...]  regenerate the paper's figures for the suite
     gen <name>         print a generated benchmark program
     interp <file.c>    run a program under the concrete interpreter
     bench-list         list the benchmark suite
     conflicts <file.c> report operation pairs that may conflict
     purity <file.c>    classify each function's memory purity
     lint <file.c>      run the checker suite (text/json/SARIF output)
     serve              run the persistent alias-query daemon
     query              script a JSON-RPC session against a running daemon
     fuzz               differential soundness fuzzing against the interpreter
     edit-replay        time incremental re-solves of scripted edits

   All analysis goes through the Engine facade: phases are timed, solver
   counters captured, and `--metrics FILE` dumps them as JSON.  Each
   program's CI solve is the one sequential fixpoint.  `tables`
   additionally caches results (keyed by source hash + config) and can
   spread whole benchmarks over multiple domains with `--jobs N`, and
   `serve --jobs N` sizes the daemon's worker pool. *)

open Cmdliner

let with_frontend_errors f =
  try f () with
  | Srcloc.Error (loc, msg) ->
    Printf.eprintf "%s: error: %s\n" (Srcloc.to_string loc) msg;
    exit 1

(* Unwrap an engine result; analysis failures are exit-code-1 diagnoses,
   not tracebacks. *)
let engine_errors r =
  match r with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "alias-analyze: error: %s\n" (Engine.error_message e);
    exit 1

(* The analysis of an unbudgeted CI run, which always reaches it;
   failures exit. *)
let analysis_of input =
  Option.get
    (engine_errors (Engine.analyze Engine.default_request input))
      .Engine.td_analysis

let budget_of_deadline deadline_ms =
  match deadline_ms with
  | None -> None
  | Some ms when ms <= 0 ->
    prerr_endline "alias-analyze: --deadline-ms must be positive";
    exit 2
  | Some ms ->
    Some (Budget.start (Budget.limits_with_deadline (float_of_int ms /. 1000.)))

let tier_conv =
  let parse s =
    match Engine.tier_of_string s with
    | Some t -> Ok t
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown tier %S (expected steensgaard, andersen, dyck, ci, or \
              cs)" s))
  in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Engine.string_of_tier t))

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget for the solve.  On exhaustion the analysis \
           degrades down the precision ladder (cs, ci, andersen, \
           steensgaard) instead of failing, and the output reports the \
           tier that answered.  The descent skips the dyck tier; with \
           $(b,--min-tier dyck) a ci solve that ran out of time fails at \
           that tier instead (the deadline has already passed when it \
           starts).")

let min_tier_arg =
  Arg.(
    value
    & opt (some tier_conv) None
    & info [ "min-tier" ] ~docv:"TIER"
        ~doc:
          "Lowest acceptable precision tier; the run fails (exit 1) rather \
           than degrade below it.  A tier above the one asked for is \
           solved outright.")

let write_metrics path json =
  match open_out path with
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Ejson.to_string json);
        output_char oc '\n')
  | exception Sys_error msg ->
    Printf.eprintf "alias-analyze: cannot write metrics: %s\n" msg;
    exit 1

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write per-phase timings and solver counters as JSON to $(docv).")

(* ---- analyze ----------------------------------------------------------------- *)

let print_degradations degradations =
  List.iter
    (fun (d : Engine.degradation) ->
      Printf.printf "degraded: %s -> %s (%s)\n"
        (Engine.string_of_tier d.Engine.d_from)
        (Engine.string_of_tier d.Engine.d_to)
        (Budget.string_of_reason d.Engine.d_reason))
    degradations

(* The report every node tier prints: the program's shape, the mode,
   and what each indirect memory operation may touch by [locations_of]. *)
let print_memop_report prog g ~mode locations_of =
  Printf.printf "functions: %d   VDG nodes: %d   alias-related outputs: %d\n"
    (List.length prog.Sil.p_functions) (Vdg.n_nodes g)
    (Stats.alias_related_outputs g);
  print_endline ("mode: " ^ mode);
  let t =
    Table.create
      ~headers:
        [
          ("function", Table.Left); ("op", Table.Left); ("where", Table.Left);
          ("may touch", Table.Left);
        ]
  in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      Table.add_row t
        [
          n.Vdg.nfun;
          (match rw with `Read -> "read" | `Write -> "write");
          (match Vdg.loc_of g n.Vdg.nid with
          | Some l -> Srcloc.to_string l
          | None -> "-");
          String.concat ", " (List.map Apath.to_string (locations_of n.Vdg.nid));
        ])
    (Vdg.indirect_memops g);
  print_endline "indirect memory operations:";
  Table.print t

(* The full-precision report, shared by the governed and ungoverned
   paths. *)
let report_analysis a ~context_sensitive ~dump_sil ~dump_dot ~show_pairs =
  let prog = a.Engine.prog and g = a.Engine.graph and ci = a.Engine.ci in
  if dump_sil then Format.printf "%a@." Sil.pp_program prog;
  if dump_dot then print_string (Vdg.to_dot g);
  let mode, locations_of =
    if context_sensitive then
      let cs = Engine.cs a in
      ( Printf.sprintf "context-sensitive (CS pairs: %d, CI pairs: %d)"
          (Stats.cs_pair_counts cs g).Stats.pc_total
          (Stats.ci_pair_counts ci).Stats.pc_total,
        Cs_solver.referenced_locations cs )
    else
      ( Printf.sprintf "context-insensitive (pairs: %d)"
          (Stats.ci_pair_counts ci).Stats.pc_total,
        Ci_solver.referenced_locations ci )
  in
  print_memop_report prog g ~mode locations_of;
  if show_pairs then begin
    print_endline "points-to pairs per alias-related output:";
    Vdg.iter_nodes g (fun n ->
        let set = Ci_solver.pairs ci n.Vdg.nid in
        if Ptpair.Set.cardinal set > 0 && Vdg.is_alias_related n.Vdg.ntype then begin
          Printf.printf "  node %d (%s, in %s):\n" n.Vdg.nid
            (Vdg.string_of_kind n.Vdg.nkind) n.Vdg.nfun;
          (* print-form order: set order follows interning, not the program *)
          Ptpair.Set.fold g.Vdg.tbl (fun p acc -> Ptpair.to_string p :: acc) set []
          |> List.sort String.compare
          |> List.iter (Printf.printf "    %s\n")
        end)
  end

(* The dyck tier's referenced-location sets may be wider than ci's
   (flow-insensitive, no strong updates). *)
let report_dyck (td : Engine.tiered) (d : Dyck_solver.t) =
  print_memop_report td.Engine.td_prog (Dyck_solver.graph d)
    ~mode:"dyck (flow-insensitive reachability)"
    (Dyck_solver.referenced_locations d)

(* At a baseline tier there is no VDG: report by source line instead. *)
let report_baseline (td : Engine.tiered) =
  Printf.printf "functions: %d\n"
    (List.length td.Engine.td_prog.Sil.p_functions);
  Printf.printf "mode: %s (flow-insensitive baseline; queries by line)\n"
    (Engine.string_of_tier td.Engine.td_tier);
  let n_lines =
    String.fold_left
      (fun n c -> if c = '\n' then n + 1 else n)
      1 td.Engine.td_input.Engine.in_source
  in
  let t =
    Table.create ~headers:[ ("line", Table.Right); ("may touch", Table.Left) ]
  in
  for line = 1 to n_lines do
    match Engine.line_locations td line with
    | Some ((_ :: _) as locs) ->
      Table.add_row t
        [
          string_of_int line;
          String.concat ", " (List.map Absloc.to_string locs);
        ]
    | _ -> ()
  done;
  print_endline "indirect memory operations:";
  Table.print t

let run_analyze file dump_sil dump_dot context_sensitive dyck show_pairs
    deadline_ms min_tier metrics =
  with_frontend_errors @@ fun () ->
  if context_sensitive && dyck then begin
    prerr_endline "alias-analyze: --dyck and --context-sensitive conflict";
    exit 2
  end;
  let input = Engine.load_file file in
  let req =
    {
      Engine.want =
        (if context_sensitive then Engine.Cs
         else if dyck then Engine.Dyck
         else Engine.Ci);
      min_tier = Option.value ~default:Engine.Steensgaard min_tier;
      budget = budget_of_deadline deadline_ms;
      prev = None;
    }
  in
  let td = engine_errors (Engine.analyze req input) in
  if deadline_ms <> None || dyck || td.Engine.td_degradations <> [] then
    Printf.printf "tier: %s\n" (Engine.string_of_tier td.Engine.td_tier);
  print_degradations td.Engine.td_degradations;
  (match (td.Engine.td_analysis, td.Engine.td_dyck) with
  | Some a, _ ->
    report_analysis a
      ~context_sensitive:(td.Engine.td_tier = Engine.Cs)
      ~dump_sil ~dump_dot ~show_pairs
  | None, Some d -> report_dyck td d
  | None, None -> report_baseline td);
  Option.iter
    (fun path -> write_metrics path (Telemetry.to_json td.Engine.td_telemetry))
    metrics

let analyze_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  let dump_sil =
    Arg.(value & flag & info [ "dump-sil" ] ~doc:"Print the SIL lowering.")
  in
  let cs =
    Arg.(value & flag & info [ "context-sensitive"; "s" ]
           ~doc:"Use the context-sensitive solver for the report.")
  in
  let dyck =
    Arg.(
      value & flag
      & info [ "dyck" ]
          ~doc:
            "Answer the report through the flow-insensitive Dyck-\
             reachability tier: field-sensitive like ci but with one \
             global store and no strong updates.")
  in
  let pairs =
    Arg.(value & flag & info [ "pairs" ] ~doc:"Dump all points-to pairs.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print the VDG in GraphViz format.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the points-to analysis on a C file")
    Term.(
      const run_analyze $ file $ dump_sil $ dot $ cs $ dyck $ pairs
      $ deadline_arg $ min_tier_arg $ metrics_arg)

(* ---- conflicts ----------------------------------------------------------------- *)

let run_conflicts file =
  with_frontend_errors @@ fun () ->
  let a = analysis_of (Engine.load_file file) in
  let modref = Modref.of_ci a.Engine.ci in
  List.iter
    (fun fd ->
      let fname = fd.Sil.fd_name in
      if fname <> Sil.global_init_name then begin
        let conflicts = Query.conflicts_in modref fname in
        if conflicts <> [] then begin
          Printf.printf "%s: %d conflicting operation pair(s)\n" fname
            (List.length conflicts);
          List.iter
            (fun c ->
              let where op =
                match op.Modref.op_loc with
                | Some l -> Srcloc.to_string l
                | None -> "<entry>"
              in
              Printf.printf "  %s %s <-> %s %s on { %s }\n"
                (match c.Query.cf_a.Modref.op_rw with `Read -> "read" | `Write -> "write")
                (where c.Query.cf_a)
                (match c.Query.cf_b.Modref.op_rw with `Read -> "read" | `Write -> "write")
                (where c.Query.cf_b)
                (String.concat ", " (List.map Apath.to_string c.Query.cf_common)))
            conflicts
        end
      end)
    a.Engine.prog.Sil.p_functions

let conflicts_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  Cmd.v
    (Cmd.info "conflicts"
       ~doc:"Report operation pairs that may touch the same storage")
    Term.(const run_conflicts $ file)

(* ---- lint ---------------------------------------------------------------------- *)

let run_lint file format checkers compare_cs deadline_ms metrics =
  (match Registry.select checkers with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "alias-analyze: %s\n" msg;
    exit 2);
  with_frontend_errors @@ fun () ->
  let a = analysis_of (Engine.load_file file) in
  let budget = budget_of_deadline deadline_ms in
  let report = Lint.run ~checkers ~compare_cs ?budget a in
  (match format with
  | `Text -> print_string (Lint.to_text report)
  | `Json -> print_endline (Ejson.to_string (Lint.to_json report))
  | `Sarif -> print_endline (Ejson.to_string (Lint.to_sarif report)));
  Option.iter
    (fun path -> write_metrics path (Telemetry.to_json a.Engine.telemetry))
    metrics

let lint_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text), $(b,json), or $(b,sarif) (2.1.0).")
  in
  let checkers =
    Arg.(
      value
      & opt (list string) []
      & info [ "checkers" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated checker selection (default: all).  Known \
             checkers: dangling-pointer, null-deref, uninit-read, conflict, \
             dead-store.")
  in
  let cs =
    Arg.(
      value & flag
      & info [ "cs" ]
          ~doc:
            "Also run every checker against the context-sensitive solution \
             and mark diagnostics whose verdict differs (the paper predicts \
             no differences).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the points-to-driven checker suite over a C file")
    Term.(
      const run_lint $ file $ format $ checkers $ cs $ deadline_arg
      $ metrics_arg)

(* ---- purity -------------------------------------------------------------------- *)

let run_purity file =
  with_frontend_errors @@ fun () ->
  let a = analysis_of (Engine.load_file file) in
  List.iter
    (fun fd ->
      let fname = fd.Sil.fd_name in
      if fname <> Sil.global_init_name then
        Printf.printf "%-24s %s\n" fname
          (match Query.classify_purity a.Engine.graph a.Engine.ci fname with
          | Query.Pure -> "pure"
          | Query.Impure_writes -> "writes memory"
          | Query.Impure_calls ext -> "calls extern '" ^ ext ^ "'"))
    a.Engine.prog.Sil.p_functions

let purity_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  Cmd.v
    (Cmd.info "purity" ~doc:"Classify each function's memory purity")
    Term.(const run_purity $ file)

(* ---- tables ------------------------------------------------------------------- *)

let run_tables names jobs metrics cache_dir no_cache =
  if jobs < 1 then (
    prerr_endline "alias-analyze: --jobs must be at least 1";
    exit 2);
  let names = match names with [] -> None | l -> Some l in
  let cache =
    if no_cache then None else Some (Engine_cache.create cache_dir)
  in
  let results = Figures.analyze_suite ?names ~jobs ?cache () in
  let section title table =
    Printf.printf "== %s ==\n" title;
    Table.print table
  in
  section "Figure 2: benchmark programs and their sizes" (Figures.figure2 results);
  section "Figure 3: total points-to pairs (context-insensitive)"
    (Figures.figure3 results);
  section "Figure 4: indirect memory reads and writes" (Figures.figure4 results);
  section "Figure 6: context-sensitive pairs vs context-insensitive"
    (Figures.figure6 results);
  let all_bd, spurious_bd = Figures.figure7 results in
  section "Figure 7a: all CI pairs by path and referent type" all_bd;
  section "Figure 7b: spurious pairs by path and referent type" spurious_bd;
  section "Headline (Section 4.3): CS vs CI at indirect operations"
    (Figures.headline results);
  section "Section 4.2: analysis cost" (Figures.cost_table results);
  section "Section 4.2: CI-based pruning applicability" (Figures.pruning_table results);
  section "Section 5.1.2: call-graph sparsity" (Figures.callgraph_table results);
  section "Checker suite: diagnostics per benchmark (CI, with CS verdict delta)"
    (Figures.checkers_table results);
  section "Degradation ladder: may-alias rate per tier"
    (Figures.ladder_table results);
  let cache_stats =
    match cache with
    | None -> []
    | Some c ->
      Printf.printf "cache (%s): %s\n" cache_dir (Engine_cache.stats_summary c);
      Engine_cache.stats_json c
  in
  Option.iter
    (fun path -> write_metrics path (Figures.suite_metrics ~cache_stats results))
    metrics

let tables_cmd =
  let names = Arg.(value & pos_all string [] & info [] ~docv:"BENCHMARK") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Analyze up to $(docv) benchmarks in parallel (OCaml domains).")
  in
  let cache_dir =
    Arg.(
      value
      & opt string "_alias_cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Directory for the on-disk result cache.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the result cache.")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run_tables $ names $ jobs $ metrics_arg $ cache_dir $ no_cache)

(* ---- serve --------------------------------------------------------------------- *)

let run_serve socket stdio jobs cache_dir no_cache max_sessions max_bytes
    disk_budget default_deadline_ms max_backlog =
  let jobs =
    match jobs with
    | Some n when n < 1 ->
      prerr_endline "alias-analyze: --jobs must be at least 1";
      exit 2
    | Some n -> n
    | None -> Par_runner.default_jobs ()
  in
  let cache =
    if no_cache then None else Some (Engine_cache.create cache_dir)
  in
  let default_deadline_s =
    match default_deadline_ms with
    | Some ms when ms <= 0 ->
      prerr_endline "alias-analyze: --default-deadline-ms must be positive";
      exit 2
    | Some ms -> Some (float_of_int ms /. 1000.)
    | None -> None
  in
  let sessions =
    Session.create ~max_entries:max_sessions ~max_bytes ?cache
      ?disk_budget:(if disk_budget > 0 then Some disk_budget else None)
      ?default_deadline_s ()
  in
  let handler = Handler.create sessions in
  (* warm-start report: opens whose key has a disk snapshot skip the
     solve phase entirely on this (re)started daemon *)
  (match cache with
  | Some c -> (
    match Engine_cache.keys_on_disk c with
    | [] -> ()
    | keys ->
      Printf.eprintf
        "alias-analyze: %d solved snapshot(s) on disk in %s (warm start)\n%!"
        (List.length keys) cache_dir)
  | None -> ());
  if stdio then Server.serve_stdio handler
  else
    match socket with
    | Some path ->
      Printf.eprintf "alias-analyze: serving on %s (%d worker domain(s))\n%!"
        path jobs;
      Server.serve_unix ~jobs ?max_backlog handler path;
      prerr_endline "alias-analyze: server shut down"
    | None ->
      prerr_endline "alias-analyze: serve needs --socket PATH or --stdio";
      exit 2

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve on a Unix-domain socket bound at $(docv).")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve a single client over stdin/stdout instead of a socket.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Serve up to $(docv) connections in parallel (OCaml domains; \
             default: the hardware's recommended domain count).")
  in
  let cache_dir =
    Arg.(
      value
      & opt string "_alias_cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Directory for the engine's on-disk result cache.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the engine's result cache.")
  in
  let max_sessions =
    Arg.(
      value & opt int 16
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Keep at most $(docv) solved programs resident (LRU).")
  in
  let max_bytes =
    Arg.(
      value
      & opt int (1 lsl 30)
      & info [ "max-session-bytes" ] ~docv:"BYTES"
          ~doc:
            "Approximate byte budget for resident sessions (LRU; 0 = \
             unbounded).")
  in
  let disk_budget =
    Arg.(
      value & opt int 0
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Prune the on-disk result cache to $(docv) after each open (0 = \
             never prune).")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Server-wide solve budget applied to opens that name no \
             deadline of their own; exhausted solves degrade down the \
             precision ladder.")
  in
  let max_backlog =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-backlog" ] ~docv:"N"
          ~doc:
            "Refuse heavy requests (open, update, lint, implicit opens, \
             tier-changing queries) with an 'overloaded' error once more \
             than $(docv) of them are in flight on the worker pool; the \
             connection stays open and cheap queries are still answered \
             (default: max 8 (2 * pool size)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent alias-query daemon (line-delimited JSON-RPC)")
    Term.(
      const run_serve $ socket $ stdio $ jobs $ cache_dir $ no_cache
      $ max_sessions $ max_bytes $ disk_budget $ default_deadline
      $ max_backlog)

(* ---- query --------------------------------------------------------------------- *)

(* A script line is either a full request object, e.g.
     {"method":"open","params":{"file":"prog.c"}}
   or the shorthand  METHOD [PARAMS-OBJECT], e.g.
     open {"file":"prog.c"}
     stats
   Blank lines and #-comments are skipped.  Ids are assigned
   automatically when missing. *)
let query_line_to_request line =
  let line = String.trim line in
  if String.length line > 0 && line.[0] = '{' then
    match Ejson.of_string line with
    | exception Ejson.Parse_error msg -> Error msg
    | json -> (
      match Protocol.request_of_json json with
      | Ok rq -> Ok rq
      | Error (_, msg) -> Error msg)
  else
    let meth, params_text =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
    in
    if params_text = "" then
      Ok
        {
          Protocol.rq_id = Ejson.Null;
          rq_method = meth;
          rq_params = Ejson.Null;
        }
    else
      match Ejson.of_string params_text with
      | exception Ejson.Parse_error msg -> Error msg
      | Ejson.Assoc _ as params ->
        Ok
          { Protocol.rq_id = Ejson.Null; rq_method = meth; rq_params = params }
      | _ -> Error "shorthand parameters must be a JSON object"

let run_query socket wait timeout script exprs =
  let lines =
    (match script with
    | Some "-" ->
      let rec slurp acc =
        match input_line stdin with
        | line -> slurp (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      slurp []
    | Some path -> (
      match open_in path with
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec slurp acc =
              match input_line ic with
              | line -> slurp (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            slurp [])
      | exception Sys_error msg ->
        Printf.eprintf "alias-analyze: %s\n" msg;
        exit 1)
    | None -> [])
    @ exprs
  in
  let lines =
    List.filter
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      lines
  in
  if lines = [] then begin
    prerr_endline
      "alias-analyze: query needs a script file, '-' for stdin, or -e LINES";
    exit 2
  end;
  let client =
    match Client.connect ~retry_for:wait ?timeout socket with
    | c -> c
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "alias-analyze: cannot connect to %s: %s\n" socket
        (Unix.error_message err);
      exit 1
  in
  let errors = ref 0 in
  let next_id = ref 0 in
  let sent_shutdown = ref false in
  (* Pipelined (v6): put every request on the wire first, then read the
     replies back in order — the server answers each connection in
     request order, so a long script pays one round trip, not one per
     line.  The reactor buffers replies while it keeps reading, so
     writing everything up front cannot deadlock. *)
  (try
     let sent = ref 0 in
     List.iter
       (fun line ->
         match query_line_to_request line with
         | Error msg ->
           Printf.eprintf "alias-analyze: bad script line %S: %s\n" line msg;
           incr errors
         | Ok rq ->
           let rq =
             match rq.Protocol.rq_id with
             | Ejson.Null ->
               incr next_id;
               { rq with Protocol.rq_id = Ejson.Int !next_id }
             | _ -> rq
           in
           if rq.Protocol.rq_method = "shutdown" then sent_shutdown := true;
           Client.send_line client
             (Ejson.to_compact_string (Protocol.request_to_json rq));
           incr sent)
       lines;
     for _ = 1 to !sent do
       let reply = Client.recv_line client in
       print_endline reply;
       match Protocol.response_of_line reply with
       | Ok { Protocol.rs_result = Ok _; _ } -> ()
       | Ok { Protocol.rs_result = Error _; _ } | Error _ -> incr errors
     done
   with
  | Client.Connection_closed ->
    (* normal after "shutdown": the daemon answers, then closes; a close
       at any other moment means the daemon died mid-session *)
    if not !sent_shutdown then begin
      Printf.eprintf
        "alias-analyze: the daemon closed the connection mid-session\n";
      incr errors
    end
  | Client.Connection_lost msg ->
    Printf.eprintf "alias-analyze: %s\n" msg;
    incr errors);
  Client.close client;
  if !errors > 0 then exit 1

let query_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")
  in
  let wait =
    Arg.(
      value & opt float 0.
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:
            "Retry the connection for up to $(docv) — for scripts that race \
             the daemon's startup.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Give up (exit 1) when a response takes longer than $(docv) — \
             so a hung or dead daemon cannot wedge a script.")
  in
  let script =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Request script: one request per line, '-' for stdin.  A line is \
             a JSON-RPC object or the shorthand 'METHOD PARAMS-OBJECT'.")
  in
  let exprs =
    Arg.(
      value
      & opt_all string []
      & info [ "e" ] ~docv:"LINE" ~doc:"Append a script line (repeatable).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Script a JSON-RPC session against a running alias daemon")
    Term.(const run_query $ socket $ wait $ timeout $ script $ exprs)

(* ---- gen ----------------------------------------------------------------------- *)

let run_gen name profile lines =
  match (name, profile) with
  | _, Some "linux" ->
    let lines = Option.value ~default:100_000 lines in
    if lines < 1 then begin
      prerr_endline "alias-analyze: --lines must be positive";
      exit 2
    end;
    print_string (Genc.generate (Profile.linux ~target_lines:lines))
  | _, Some p ->
    Printf.eprintf "unknown profile '%s'; available: linux\n" p;
    exit 1
  | Some name, None -> (
    match Suite.find name with
    | Some entry -> print_string (Suite.source entry)
    | None ->
      Printf.eprintf "unknown benchmark '%s'; try bench-list\n" name;
      exit 1)
  | None, None ->
    prerr_endline "alias-analyze: gen needs a BENCHMARK name or --profile";
    exit 2

let gen_cmd =
  let bench_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Generate from a scale preset instead of a paper benchmark.  \
             $(b,linux) emits a kernel-shaped program (deep call chains, \
             wide fan-in, function pointers) at --lines size.")
  in
  let lines =
    Arg.(
      value
      & opt (some int) None
      & info [ "lines" ] ~docv:"N"
          ~doc:"Target source-line count for --profile (default 100000).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Print a generated benchmark program")
    Term.(const run_gen $ bench_arg $ profile $ lines)

(* ---- interp -------------------------------------------------------------------- *)

let run_interp file fuel trace =
  with_frontend_errors @@ fun () ->
  let prog = Engine.compile (Engine.load_file file) in
  let res = Interp.run ~fuel prog in
  print_string res.Interp.output;
  (match res.Interp.outcome with
  | Interp.Exit code -> Printf.printf "[exit %Ld after %d steps]\n" code res.Interp.steps
  | Interp.Out_of_fuel -> Printf.printf "[out of fuel after %d steps]\n" res.Interp.steps
  | Interp.Trap msg -> Printf.printf "[trap: %s]\n" msg);
  if trace then
    List.iter
      (fun ob -> print_endline ("  " ^ Interp.string_of_observation ob))
      res.Interp.observations

let interp_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  let fuel =
    Arg.(value & opt int 1_000_000 & info [ "fuel" ] ~doc:"Step budget.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print every observed dereference.")
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Run a C file under the concrete interpreter")
    Term.(const run_interp $ file $ fuel $ trace)

(* ---- fuzz ----------------------------------------------------------------------- *)

(* Differential soundness fuzzing: a fixed-seed batch of generated
   programs, each run under the interpreter and checked against every
   analysis tier.  Exit status is the number of dirty programs (capped),
   so CI can gate on it directly. *)
let run_fuzz seed count fuel json verbose =
  let dirty = ref 0 in
  let observations = ref 0 in
  let checked = ref 0 in
  for i = 0 to count - 1 do
    let r = Oracle.check_generated ~fuel ~seed i in
    observations := !observations + r.Oracle.rp_observations;
    checked := !checked + r.Oracle.rp_checked;
    if not (Oracle.ok r) then begin
      incr dirty;
      if json then print_endline (Ejson.to_compact_string (Oracle.report_json r))
      else begin
        (match r.Oracle.rp_trap with
        | Some m ->
          Printf.printf "%s: interpreter trap: %s\n" r.Oracle.rp_program m
        | None -> ());
        List.iter
          (fun v -> print_endline (Oracle.string_of_violation v))
          r.Oracle.rp_violations
      end
    end
    else if verbose then
      Printf.printf "%s: ok (%d observation(s), %d checked)\n"
        r.Oracle.rp_program r.Oracle.rp_observations r.Oracle.rp_checked
  done;
  if json then
    print_endline
      (Ejson.to_compact_string
         (Ejson.Assoc
            [
              ("seed", Ejson.Int seed);
              ("programs", Ejson.Int count);
              ("tiers", Ejson.List (List.map (fun t -> Ejson.String t) Oracle.tier_names));
              ("observations", Ejson.Int !observations);
              ("checked", Ejson.Int !checked);
              ("dirty", Ejson.Int !dirty);
            ]))
  else
    Printf.printf
      "fuzz: seed %d, %d program(s), %d tier(s), %d observation(s) (%d checked), %d dirty\n"
      seed count
      (List.length Oracle.tier_names)
      !observations !checked !dirty;
  exit (min !dirty 125)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1995 & info [ "seed" ] ~doc:"Batch seed (deterministic).")
  in
  let count =
    Arg.(value & opt int 500 & info [ "n"; "count" ] ~doc:"Number of generated programs.")
  in
  let fuel =
    Arg.(value & opt int Oracle.default_fuel & info [ "fuel" ] ~doc:"Interpreter step budget per program.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit line-delimited JSON reports and a summary object.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Report clean programs too.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential soundness fuzzing: generate a fixed-seed program \
          batch, run each under the interpreter, and check that no \
          analysis tier refutes an observed access; exits nonzero on any \
          violation or trap")
    Term.(const run_fuzz $ seed $ count $ fuel $ json $ verbose)

(* ---- edit-replay ----------------------------------------------------------------- *)

(* Replay a scripted edit sequence through the incremental engine
   (DESIGN.md §14): after a cold solve of the base program, each edit is
   re-solved incrementally against the previous snapshot AND cold from
   scratch, reporting per-edit latency (the "ci" phase of the cold solve
   vs the "incr" phase of the splice), re-solved/reused procedure
   counts, and whether the two solutions' canonical digests match.  Exit
   status is the number of digest mismatches, so CI can gate on it
   directly. *)

let replace_first ~find ~replace s =
  let flen = String.length find in
  let n = String.length s in
  if flen = 0 || flen > n then None
  else
    let rec scan i =
      if i + flen > n then None
      else if String.equal (String.sub s i flen) find then
        Some
          (String.sub s 0 i ^ replace
          ^ String.sub s (i + flen) (n - i - flen))
      else scan (i + 1)
    in
    scan 0

type replay_edit = { re_name : string; re_source : string }

(* A script is a JSON list of {"name", "find", "replace"} objects, each
   rewriting the first occurrence of "find" in the previous step's
   source — edits are cumulative, like a real editing session. *)
let edits_of_script base path =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Ejson.of_string text with
  | exception Ejson.Parse_error msg -> fail "%s: %s" path msg
  | Ejson.List items ->
    let src = ref base in
    List.mapi
      (fun i item ->
        let str field =
          match Ejson.member field item with
          | Some (Ejson.String s) -> s
          | _ -> fail "%s: edit %d: missing string field %S" path i field
        in
        let name =
          match Ejson.member "name" item with
          | Some (Ejson.String s) -> s
          | _ -> Printf.sprintf "edit-%d" (i + 1)
        in
        match replace_first ~find:(str "find") ~replace:(str "replace") !src with
        | Some s' ->
          src := s';
          { re_name = name; re_source = s' }
        | None -> fail "%s: edit %d (%s): pattern not found" path i name)
      items
  | _ -> fail "%s: an edit script is a JSON list" path

(* Without a script: append [n] probe procedures one by one (the
   minimal single-procedure edit), then revert to the base — the shape
   of an explore-and-undo editing session. *)
let synthetic_edits base n =
  let src = ref base in
  List.init n (fun i ->
      src :=
        Printf.sprintf "%s\nint __replay_probe_%d(int *p) { return p == 0; }\n"
          !src i;
      { re_name = Printf.sprintf "append-probe-%d" (i + 1); re_source = !src })
  @ [ { re_name = "revert"; re_source = base } ]

let run_edit_replay file bench script edits_n json no_verify min_speedup =
  with_frontend_errors @@ fun () ->
  let name, base =
    match (file, bench) with
    | Some f, None -> (f, In_channel.with_open_bin f In_channel.input_all)
    | None, Some b -> (
      match Suite.find b with
      | Some e -> (b ^ ".c", Suite.source e)
      | None ->
        Printf.eprintf "unknown benchmark '%s'; try bench-list\n" b;
        exit 2)
    | _ ->
      prerr_endline "edit-replay: name exactly one of FILE.c or --bench";
      exit 2
  in
  let edits =
    match script with
    | Some path -> edits_of_script base path
    | None -> synthetic_edits base edits_n
  in
  let phase tele ph =
    Option.value ~default:0. (Telemetry.phase_seconds tele ph)
  in
  let base_a = analysis_of (Engine.load_string ~file:name base) in
  let prev = ref (Engine.incr_snapshot base_a) in
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun e ->
        (* level the playing field between edits: earlier solves leave a
           large live heap (previous snapshot, intern universes) that
           would otherwise tax later edits' major GCs — for both the
           cold and the incremental timing, but unevenly *)
        Gc.compact ();
        let input = Engine.load_string ~file:name e.re_source in
        let td_inc =
          engine_errors
            (Engine.analyze
               { Engine.default_request with prev = Some !prev }
               input)
        in
        let a_inc = Option.get td_inc.Engine.td_analysis
        and outcome = Option.get td_inc.Engine.td_incr in
        let a_cold = analysis_of input in
        let digest_match =
          no_verify
          || String.equal
               (Solution_digest.digest a_inc)
               (Solution_digest.digest a_cold)
        in
        if not digest_match then incr mismatches;
        prev := Engine.incr_snapshot a_inc;
        let cold_ci = phase a_cold.Engine.telemetry "ci" in
        let incr_s = phase a_inc.Engine.telemetry "incr" in
        let s = outcome.Incr_engine.o_stats in
        (e.re_name, cold_ci, incr_s, s, digest_match))
      edits
  in
  let speedup cold_ci incr_s = cold_ci /. Float.max incr_s 1e-9 in
  if json then
    print_endline
      (Ejson.to_compact_string
         (Ejson.Assoc
            [
              ("file", Ejson.String name);
              ("edits", Ejson.Int (List.length rows));
              ("verified", Ejson.Bool (not no_verify));
              ("digest_mismatches", Ejson.Int !mismatches);
              ( "min_solve_speedup",
                Ejson.Float
                  (List.fold_left
                     (fun acc (_, c, i, _, _) -> Float.min acc (speedup c i))
                     infinity rows
                  |> fun v -> if Float.is_finite v then v else 0.) );
              ( "per_edit",
                Ejson.List
                  (List.map
                     (fun (nm, cold_ci, incr_s, (s : Incr_engine.stats), ok) ->
                       Ejson.Assoc
                         ([
                            ("name", Ejson.String nm);
                            ("cold_ci_seconds", Ejson.Float cold_ci);
                            ("incr_seconds", Ejson.Float incr_s);
                            ( "solve_speedup",
                              Ejson.Float (speedup cold_ci incr_s) );
                            ("digest_match", Ejson.Bool ok);
                          ]
                         @ Telemetry.incr_json s))
                     rows) );
            ]))
  else begin
    Printf.printf "%-24s %10s %10s %8s %14s  %s\n" "edit" "cold-ci" "incr"
      "speedup" "resolved/total" "digest";
    List.iter
      (fun (nm, cold_ci, incr_s, (s : Incr_engine.stats), ok) ->
        Printf.printf "%-24s %9.2fms %8.2fms %7.1fx %8d/%-5d  %s\n" nm
          (cold_ci *. 1e3) (incr_s *. 1e3)
          (speedup cold_ci incr_s)
          s.Incr_engine.st_resolved s.Incr_engine.st_procs_total
          (if no_verify then "-" else if ok then "ok" else "MISMATCH"))
      rows;
    if not no_verify then
      Printf.printf "%d edit(s), %d digest mismatch(es)\n" (List.length rows)
        !mismatches
  end;
  let min_observed =
    List.fold_left
      (fun acc (_, c, i, _, _) -> Float.min acc (speedup c i))
      infinity rows
  in
  (match min_speedup with
  | Some want when min_observed < want ->
    Printf.eprintf
      "edit-replay: minimum solve speedup %.1fx below required %.1fx\n"
      min_observed want;
    exit 3
  | _ -> ());
  exit (min !mismatches 125)

let edit_replay_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"BENCHMARK"
          ~doc:"Replay over a generated benchmark instead of a file.")
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"EDITS.json"
          ~doc:
            "Edit script: a JSON list of {\"name\", \"find\", \"replace\"} \
             objects, each rewriting the first occurrence of \"find\" in \
             the previous step's source.  Default: append probe \
             procedures one by one, then revert.")
  in
  let edits_n =
    Arg.(
      value & opt int 3
      & info [ "edits" ] ~docv:"N"
          ~doc:"Number of synthetic probe edits (without --script).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON report.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip the digest comparison (timing only; mismatches cannot \
             be detected).")
  in
  let min_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "Fail (exit 3) unless every edit's incremental re-solve beat \
             its cold solve by at least Xx (the CI smoke gate).")
  in
  Cmd.v
    (Cmd.info "edit-replay"
       ~doc:
         "Replay scripted edits through the incremental engine, timing \
          each re-solve against a cold solve and checking the solution \
          digests match; exits nonzero on any mismatch")
    Term.(
      const run_edit_replay $ file $ bench $ script $ edits_n $ json
      $ no_verify $ min_speedup)

(* ---- bench-list ----------------------------------------------------------------- *)

let run_bench_list () =
  List.iter
    (fun e ->
      Printf.printf "%-10s  %5d paper lines\n" e.Suite.profile.Profile.name
        e.Suite.paper_lines)
    Suite.benchmarks

let bench_list_cmd =
  Cmd.v
    (Cmd.info "bench-list" ~doc:"List the benchmark suite")
    Term.(const run_bench_list $ const ())

let () =
  let doc = "points-to alias analysis for C (Ruf, PLDI 1995 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "alias-analyze" ~doc)
          [ analyze_cmd; tables_cmd; gen_cmd; interp_cmd; bench_list_cmd;
            conflicts_cmd; purity_cmd; lint_cmd; serve_cmd; query_cmd;
            fuzz_cmd; edit_replay_cmd ]))
