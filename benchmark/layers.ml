(* The traced run: each workload's operations replayed in-process, with a
   span (Trace) around every call into a layer's public function and the
   counts read from its result values.  The end-to-end numbers of the same
   run come from the untraced measurement (Workloads); time the spans do
   not explain is reported as a named remainder: cli.other_s,
   session.open_other_ms / session.update_other_ms, transport.query_us /
   transport.open_ms.

   CLI workloads run their stages in a fresh child of the benchmark
   (`bench.exe stage FILE`), so the intern tables start cold as they do
   in a real `analyze` process.  Server workloads replay against a
   private Session.t and Handler.t; their "shadow" stage spans re-run the
   pipeline on the same text right after the session call, in the same
   process, so the stage times are a lower bound (warm intern tables) and
   the session remainders an upper bound. *)

(* Every per-layer metric, with its unit; BENCHMARK.json lists the same.
   A layer a workload never calls reads 0. *)
let metric_units =
  [
    ("cfront.preproc_s", "s"); ("cfront.lex_s", "s"); ("cfront.parse_s", "s");
    ("cfront.sema_s", "s"); ("cfront.tokens", "count"); ("cfront.alloc_mb", "MB");
    ("ir.lower_s", "s"); ("ir.alloc_mb", "MB");
    ("vdg.build_s", "s"); ("vdg.nodes", "count"); ("vdg.alloc_mb", "MB");
    ("ci.solve_s", "s"); ("ci.transfers", "count"); ("ci.meets", "count");
    ("ci.pairs", "count"); ("ci.meet_cache_hit_ratio", "ratio");
    ("ci.interned_sets", "count"); ("ci.alloc_mb", "MB");
    ("par.solve_s", "s"); ("par.speedup", "x"); ("par.components", "count");
    ("par.steals", "count"); ("par.messages", "count");
    ("cs.solve_s", "s"); ("cs.transfers", "count"); ("cs.meets", "count");
    ("cs.pairs", "count"); ("cs.stale_skips", "count");
    ("digest.ci_s", "s");
    ("incr.summary_s", "s"); ("incr.update_s", "s"); ("incr.resolved", "count");
    ("incr.reused", "count"); ("incr.rounds", "count");
    ("session.open_ms", "ms"); ("session.update_ms", "ms");
    ("session.open_other_ms", "ms"); ("session.update_other_ms", "ms");
    ("protocol.decode_us", "us"); ("protocol.decode_update_ms", "ms");
    ("handler.may_alias_us", "us"); ("handler.points_to_us", "us");
    ("handler.modref_us", "us"); ("handler.conflicts_us", "us");
    ("handler.purity_us", "us"); ("handler.lint_us", "us");
    ("handler.open_us", "us"); ("handler.stats_us", "us");
    ("handler.heavy_ratio", "ratio");
    ("transport.query_us", "us"); ("transport.open_ms", "ms");
    ("process.startup_ms", "ms"); ("cli.other_s", "s");
  ]

let mib b = b /. 1048576.

(* ---- samples ------------------------------------------------------------------ *)

(* name -> values, newest first *)
type acc = (string, float list) Hashtbl.t

let add (acc : acc) name v =
  Hashtbl.replace acc name (v :: Option.value ~default:[] (Hashtbl.find_opt acc name))

let values acc name = List.rev (Option.value ~default:[] (Hashtbl.find_opt acc name))
let total acc name = Sample.sum (values acc name)
let med acc name = Sample.median (values acc name)

(* ---- stages -------------------------------------------------------------------- *)

(* Preproc -> Lexer -> Parser -> Sema -> Norm -> Vdg_build, the calls
   Norm.compile and Engine.build_graph make, one span each. *)
let frontend acc ~file src =
  let pp, pre = Trace.timed "cfront.preproc" (fun () -> Preproc.run ~file src) in
  let toks, lex = Trace.timed "cfront.lex" (fun () -> Lexer.tokenize ~file pp) in
  let ast, parse = Trace.timed "cfront.parse" (fun () -> Parser.parse_tokens toks) in
  let env, sema = Trace.timed "cfront.sema" (fun () -> Sema.check ast) in
  let prog, lower = Trace.timed "ir.lower" (fun () -> Norm.lower ~file env ast) in
  let g, vdg =
    Trace.timed "vdg.build" (fun () ->
        Vdg_build.build ~mode:Engine.default_config.Engine.vdg_mode prog)
  in
  add acc "cfront.preproc_s" (Trace.dur pre);
  add acc "cfront.lex_s" (Trace.dur lex);
  add acc "cfront.parse_s" (Trace.dur parse);
  add acc "cfront.sema_s" (Trace.dur sema);
  add acc "cfront.tokens" (float_of_int (List.length toks));
  add acc "cfront.alloc_mb" (mib (pre.alloc +. lex.alloc +. parse.alloc +. sema.alloc));
  add acc "ir.lower_s" (Trace.dur lower);
  add acc "ir.alloc_mb" (mib lower.alloc);
  add acc "vdg.build_s" (Trace.dur vdg);
  add acc "vdg.nodes" (float_of_int (Vdg.n_nodes g));
  add acc "vdg.alloc_mb" (mib vdg.alloc);
  (prog, g)

let solve_ci acc g =
  let ci, s = Trace.timed "ci.solve" (fun () -> Engine.solve_ci g) in
  let ps = Ci_solver.ptset_stats ci in
  add acc "ci.solve_s" (Trace.dur s);
  add acc "ci.transfers" (float_of_int (Ci_solver.flow_in_count ci));
  add acc "ci.meets" (float_of_int (Ci_solver.flow_out_count ci));
  add acc "ci.pairs" (float_of_int (Stats.ci_pair_counts ci).Stats.pc_total);
  add acc "ci.meet_cache_hits" (float_of_int ps.Ptset.st_cache_hits);
  add acc "ci.meet_cache_misses" (float_of_int ps.Ptset.st_cache_misses);
  add acc "ci.interned_sets" (float_of_int ps.Ptset.st_sets);
  add acc "ci.alloc_mb" (mib s.alloc);
  ci

let solve_cs acc g ci =
  let cs, s = Trace.timed "cs.solve" (fun () -> Engine.solve_cs g ~ci) in
  add acc "cs.solve_s" (Trace.dur s);
  add acc "cs.transfers" (float_of_int (Cs_solver.flow_in_count cs));
  add acc "cs.meets" (float_of_int (Cs_solver.flow_out_count cs));
  add acc "cs.pairs" (float_of_int (Stats.cs_pair_counts cs g).Stats.pc_total);
  add acc "cs.stale_skips" (float_of_int (Cs_solver.worklist_stale_skips cs))

let stage_spans =
  [ "cfront.preproc"; "cfront.lex"; "cfront.parse"; "cfront.sema"; "ir.lower";
    "vdg.build"; "ci.solve"; "cs.solve" ]

(* ---- the stage child ------------------------------------------------------------ *)

(* `bench.exe stage FILE [--cs] [--par N]`: the CLI pipeline's stages on
   one file in a fresh process; prints its spans and values as JSON. *)
let stage_main file ~cs ~par =
  let acc = Hashtbl.create 32 in
  let src = In_channel.with_open_bin file In_channel.input_all in
  let prog, g = frontend acc ~file src in
  ignore prog;
  (let ci = solve_ci acc g in
   if cs then solve_cs acc g ci);
  (* the sequential solution is garbage by now: each sharded solve starts
     from the same heap a fresh process would have *)
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  for _ = 1 to par do
    Gc.compact ();
    let (_, st), s = Trace.timed "par.solve" (fun () -> Par_solver.solve ~jobs g) in
    add acc "par.solve_s" (Trace.dur s);
    add acc "par.components" (float_of_int st.Par_solver.par_components);
    add acc "par.steals" (float_of_int st.Par_solver.par_steals);
    add acc "par.messages" (float_of_int st.Par_solver.par_messages)
  done;
  let f x = Ejson.Float x in
  (* wall-clock instants as integer microseconds: a float literal keeps
     only 9 significant digits *)
  let us t = Ejson.Int (int_of_float (t *. 1e6)) in
  print_endline
    (Ejson.to_compact_string
       (Ejson.Assoc
          [
            ( "spans",
              Ejson.List
                (List.map
                   (fun (s : Trace.span) ->
                     Ejson.List [ Ejson.String s.name; us s.start; us s.stop; f s.alloc ])
                   (Trace.spans ())) );
            ( "values",
              Ejson.Assoc
                (Hashtbl.fold
                   (fun k vs l -> (k, Ejson.List (List.rev_map f vs)) :: l)
                   acc []) );
          ]))

let num = function Ejson.Float x -> x | Ejson.Int n -> float_of_int n | _ -> 0.

(* Run the stage child on [file]; its spans join the trace under the
   current span and its values join [acc].  Returns the summed stage time. *)
let run_stage acc ~pid file flags =
  let out = "stage.json" in
  let o = Proc.run ~stdout:out Sys.executable_name ("stage" :: file :: flags) in
  if o.Proc.code <> 0 then failwith (Printf.sprintf "stage child on %s exited %d" file o.Proc.code);
  let json = Ejson.of_string (Workloads.read_file out) in
  let stage_time = ref 0. in
  (match Ejson.member "spans" json with
  | Some (Ejson.List spans) ->
    List.iter
      (function
        | Ejson.List [ Ejson.String name; start; stop; alloc ] ->
          let s =
            {
              Trace.name;
              id = 0;
              parent = -1;
              pid;
              start = num start /. 1e6;
              stop = num stop /. 1e6;
              alloc = num alloc;
            }
          in
          Trace.add s;
          if List.mem name stage_spans then stage_time := !stage_time +. Trace.dur s
        | _ -> ())
      spans
  | _ -> ());
  (match Ejson.member "values" json with
  | Some (Ejson.Assoc kvs) ->
    List.iter
      (fun (k, v) -> match v with Ejson.List l -> List.iter (fun x -> add acc k (num x)) l | _ -> ())
      kvs
  | _ -> ());
  !stage_time

let startup_ms (ctx : Workloads.ctx) =
  1000.
  *. Sample.median
       (List.init 5 (fun _ -> (Proc.run ctx.Workloads.analyze [ "--help" ]).Proc.wall_s))

let detail (r : Workloads.result) name =
  match List.find_opt (fun (n, _, _) -> n = name) r.Workloads.details with
  | Some (_, v, _) -> v
  | None -> 0.

(* ---- per-workload replays -------------------------------------------------------- *)

(* Stage layers: totals over the workload's programs, except on ide-bc
   where they are medians per analysed text. *)
let stage_metrics agg =
  let hits = agg "ci.meet_cache_hits" and misses = agg "ci.meet_cache_misses" in
  List.map
    (fun n -> (n, agg n))
    [
      "cfront.preproc_s"; "cfront.lex_s"; "cfront.parse_s"; "cfront.sema_s";
      "cfront.tokens"; "cfront.alloc_mb"; "ir.lower_s"; "ir.alloc_mb"; "vdg.build_s";
      "vdg.nodes"; "vdg.alloc_mb"; "ci.solve_s"; "ci.transfers"; "ci.meets"; "ci.pairs";
      "ci.interned_sets"; "ci.alloc_mb"; "cs.solve_s"; "cs.transfers"; "cs.meets";
      "cs.pairs"; "cs.stale_skips"; "digest.ci_s";
    ]
  @ [ ("ci.meet_cache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.) ]

type outcome = {
  layer : (string * float) list;
  notes : string list;  (* the end-to-end numbers beside the span sums *)
}

(* Per program, [reps] stage children alternate with [reps] untraced
   `analyze` children of the same command as the end-to-end run, so the
   remainder compares medians taken side by side rather than minutes
   apart. *)
let cli (ctx : Workloads.ctx) ~programs ~flags ~analyze_args ~reps =
  let acc = Hashtbl.create 64 in
  let per_program =
    List.mapi
      (fun i name ->
        Trace.request (i + 1) (fun () ->
            let runs =
              List.init reps (fun _ ->
                  let mine = Hashtbl.create 32 in
                  let stages, _ =
                    Trace.timed "cli.stages" (fun () ->
                        run_stage mine ~pid:(i + 2) (name ^ ".c") flags)
                  in
                  let wall =
                    (Proc.run ctx.Workloads.analyze (analyze_args (name ^ ".c"))).Proc.wall_s
                  in
                  (mine, stages, wall))
            in
            (* each value's median over the repetitions, position by position *)
            let first, _, _ = List.hd runs in
            Hashtbl.iter
              (fun k _ ->
                let columns = List.map (fun (m, _, _) -> Array.of_list (values m k)) runs in
                Array.iteri
                  (fun j _ -> add acc k (Sample.median (List.map (fun c -> c.(j)) columns)))
                  (List.hd columns))
              first;
            ( Sample.median (List.map (fun (_, s, _) -> s) runs),
              Sample.median (List.map (fun (_, _, w) -> w) runs) )))
      programs
  in
  let stage_time = Sample.sum (List.map fst per_program) in
  let analyze_s = Sample.sum (List.map snd per_program) in
  let startup = startup_ms ctx in
  let other = analyze_s -. stage_time -. (float_of_int (List.length programs) *. startup /. 1000.) in
  let par =
    match values acc "par.solve_s" with
    | [] -> []
    | times ->
      (* the median run, with its own counters *)
      let by_time = List.sort compare (List.mapi (fun i t -> (t, i)) times) in
      let m, i = List.nth by_time (List.length by_time / 2) in
      let pick n = List.nth (values acc n) i in
      [
        ("par.solve_s", m);
        ("par.speedup", total acc "ci.solve_s" /. m);
        ("par.components", pick "par.components");
        ("par.steals", pick "par.steals");
        ("par.messages", pick "par.messages");
      ]
  in
  {
    layer =
      stage_metrics (total acc)
      @ par
      @ [ ("process.startup_ms", startup); ("cli.other_s", other) ];
    notes =
      [
        Printf.sprintf
          "analyze (untraced, beside the stage children) %.3f s; stage spans %.3f s (%.1f%%); startup %.2f ms x %d; other %.3f s"
          analyze_s stage_time (100. *. stage_time /. analyze_s) startup
          (List.length programs) other;
      ];
  }

(* Decode one request line and dispatch it on a private handler; returns
   the reply line. *)
let dispatch acc handler conn ~meth line =
  let env, d = Trace.timed "protocol.decode" (fun () -> Protocol.envelope_of_line line) in
  if meth = "update" then add acc "protocol.decode_update_ms" (1000. *. Trace.dur d)
  else add acc "protocol.decode_us" (1e6 *. Trace.dur d);
  add acc "heavy" (if Handler.heavy_line line then 1. else 0.);
  let out, h =
    Trace.timed ("handler." ^ meth) (fun () -> Handler.handle_envelope handler conn env)
  in
  add acc ("handler." ^ meth ^ "_us") (1e6 *. Trace.dur h);
  add acc ("dispatch." ^ meth) (1e6 *. (Trace.dur d +. Trace.dur h));
  add acc "dispatch" (1e6 *. (Trace.dur d +. Trace.dur h));
  match out with Handler.Reply l | Handler.Reply_shutdown l -> l

let handler_metrics acc =
  List.map
    (fun m -> ("handler." ^ m ^ "_us", med acc ("handler." ^ m ^ "_us")))
    [ "may_alias"; "points_to"; "modref"; "conflicts"; "purity"; "lint"; "open"; "stats" ]
  @ [
      ( "handler.heavy_ratio",
        let heavy = values acc "heavy" in
        Sample.sum heavy /. float_of_int (max 1 (List.length heavy)) );
      ("protocol.decode_us", med acc "protocol.decode_us");
      ("protocol.decode_update_ms", med acc "protocol.decode_update_ms");
      ("session.open_ms", med acc "session.open_ms");
      ("session.update_ms", med acc "session.update_ms");
      ("session.open_other_ms", med acc "session.open_other_ms");
      ("session.update_other_ms", med acc "session.update_other_ms");
    ]

let result_of line =
  match Ejson.of_string line with
  | exception Ejson.Parse_error _ -> failwith ("unparsable reply " ^ line)
  | json -> (
    match Ejson.member "result" json with
    | Some r -> r
    | None -> failwith ("error reply " ^ line))

(* A set-up request on a private handler, outside any span. *)
let ask handler conn meth params =
  match Handler.handle_line handler conn (Wire.request_line ~id:0 meth params) with
  | Handler.Reply l | Handler.Reply_shutdown l -> result_of l

(* Open [file] on a private session and re-run its stages right after;
   the difference is the session's own work.  Each timed block starts
   from a compacted heap, so the replay's own garbage does not land on
   the next one. *)
let traced_open acc sessions file =
  Gc.compact ();
  let e, so = Trace.timed "session.open" (fun () -> Session.open_path sessions file) in
  let e = e.Session.or_entry in
  let src = Workloads.read_file file in
  let t0 = Unix.gettimeofday () in
  let _, g = frontend acc ~file src in
  ignore (solve_ci acc g);
  let a = Option.get (Session.analysis e) in
  let _, ds = Trace.timed "digest.ci" (fun () -> Solution_digest.ci_digest a) in
  add acc "digest.ci_s" (Trace.dur ds);
  let shadow = Unix.gettimeofday () -. t0 in
  add acc "session.open_ms" (1000. *. Trace.dur so);
  add acc "session.open_other_ms" (1000. *. (Trace.dur so -. shadow));
  e

let ide_bc (ctx : Workloads.ctx) (e2e : Workloads.result) =
  let acc = Hashtbl.create 64 in
  let handler_sessions = Session.create () in
  let handler = Handler.create handler_sessions in
  let conn = Handler.new_conn () in
  let ids = ref 0 in
  let send meth params =
    incr ids;
    result_of (dispatch acc handler conn ~meth (Wire.request_line ~id:!ids meth params))
  in
  let base_src = Workloads.read_file "bc.c" in
  let lines = (Workloads.discover (ask handler conn) "bc.c").Gen.lines in
  let sessions = Session.create () in
  let file = Workloads.ide_file in
  for r = 1 to max 1 (min 3 e2e.Workloads.rounds) do
    let base = Gen.fresh_text ~seed:ctx.Workloads.seed ~round:r base_src in
    let script = Gen.edit_script ~seed:ctx.Workloads.seed ~round:r ~edits:ctx.Workloads.edits base in
    let probes = Gen.probes ~seed:ctx.Workloads.seed ~round:r ~count:(ctx.Workloads.edits + 1) lines in
    Workloads.write_file file base;
    (* the wire requests, through the protocol and handler layers *)
    Gc.compact ();
    Trace.request (1000 * r) (fun () ->
        let opened = send "open" (Ejson.Assoc [ ("file", Ejson.String file) ]) in
        ignore
          (send "may_alias"
             (Workloads.may_alias_params (Workloads.str_member "session" opened) (List.hd probes)));
        List.iteri
          (fun k ((e : Gen.edit), pair) ->
            Trace.request ((1000 * r) + k + 1) (fun () ->
                let upd =
                  send "update"
                    (Ejson.Assoc [ ("file", Ejson.String file); ("source", Ejson.String e.Gen.text) ])
                in
                ignore
                  (send "may_alias"
                     (Workloads.may_alias_params (Workloads.str_member "session" upd) pair))))
          (List.combine script (List.tl probes));
        ignore (send "close" (Ejson.Assoc [ ("file", Ejson.String file) ])));
    (* the same texts through the session layer, with shadow stages *)
    Trace.request ((1000 * r) + 500) (fun () ->
        let entry = ref (traced_open acc sessions file) in
        List.iter
          (fun (e : Gen.edit) ->
            let prev = Option.get (Session.analysis !entry) in
            Gc.compact ();
            let (entry', _), su =
              Trace.timed "session.update" (fun () -> Session.update ~source:e.Gen.text sessions file)
            in
            let t0 = Unix.gettimeofday () in
            let prog, g = frontend acc ~file e.Gen.text in
            let snap, ss =
              Trace.timed "incr.snapshot" (fun () ->
                  Incr_engine.snapshot prev.Engine.prog prev.Engine.graph prev.Engine.ci)
            in
            let out, su2 = Trace.timed "incr.update" (fun () -> Incr_engine.update ~prev:snap prog g) in
            let a = Option.get (Session.analysis entry') in
            let _, ds = Trace.timed "digest.ci" (fun () -> Solution_digest.ci_digest a) in
            let shadow = Unix.gettimeofday () -. t0 in
            let st = out.Incr_engine.o_stats in
            add acc "incr.summary_s" (Trace.dur ss);
            add acc "incr.update_s" (Trace.dur su2);
            add acc "incr.resolved" (float_of_int st.Incr_engine.st_resolved);
            add acc "incr.reused" (float_of_int st.Incr_engine.st_reused);
            add acc "incr.rounds" (float_of_int st.Incr_engine.st_rounds);
            add acc "digest.ci_s" (Trace.dur ds);
            add acc "session.update_ms" (1000. *. Trace.dur su);
            add acc "session.update_other_ms" (1000. *. (Trace.dur su -. shadow));
            entry := entry')
          script;
        ignore (Session.close_path sessions file))
  done;
  let cli_bc_ms =
    1000.
    *. Sample.median
         (List.init 3 (fun _ ->
              (Proc.run ctx.Workloads.analyze [ "analyze"; "bc.c" ]).Proc.wall_s))
  in
  let h = handler_metrics acc in
  let get n = List.assoc n h in
  let open_ms = detail e2e "open_rpc_mean_ms" and server_open = detail e2e "server_open_mean_ms" in
  let transport_open = open_ms -. server_open in
  let transport_query = detail e2e "probe_us" -. med acc "dispatch.may_alias" in
  let first = detail e2e "open_first_answer_ms" in
  {
    layer =
      stage_metrics (med acc)
      @ List.map (fun n -> (n, med acc n)) [ "incr.summary_s"; "incr.update_s"; "incr.resolved"; "incr.reused"; "incr.rounds" ]
      @ h
      @ [
          ("transport.open_ms", transport_open);
          ("transport.query_us", transport_query);
          ("process.startup_ms", startup_ms ctx);
        ];
    notes =
      [
        Printf.sprintf
          "open_first_answer_ms (untraced) %.1f vs CLI analyze of bc %.1f ms: gap %.1f ms"
          first cli_bc_ms (first -. cli_bc_ms);
        Printf.sprintf
          "  open round trip (mean) %.1f ms = transport %.1f + server-side handler %.1f (in-process handler %.1f: %.1f more on a pool worker); in-process session open %.1f = stages %.1f + digest %.1f + other %.1f; first may_alias %.3f ms"
          open_ms transport_open server_open (get "handler.open_us" /. 1000.)
          (server_open -. (get "handler.open_us" /. 1000.))
          (get "session.open_ms")
          (1000. *. Sample.sum (List.map (fun n -> med acc n)
             [ "cfront.preproc_s"; "cfront.lex_s"; "cfront.parse_s"; "cfront.sema_s"; "ir.lower_s"; "vdg.build_s"; "ci.solve_s" ]))
          (1000. *. med acc "digest.ci_s")
          (get "session.open_other_ms")
          (detail e2e "probe_us" /. 1000.);
      ];
  }

let serve_warm (ctx : Workloads.ctx) (e2e : Workloads.result) =
  let acc = Hashtbl.create 64 in
  let sessions = Session.create () in
  let handler = Handler.create sessions in
  let conn = Handler.new_conn () in
  Array.iteri
    (fun i name -> Trace.request (i + 1) (fun () -> ignore (traced_open acc sessions (name ^ ".c"))))
    ctx.Workloads.programs;
  let targets =
    Array.map (fun name -> Workloads.discover (ask handler conn) (name ^ ".c")) ctx.Workloads.programs
  in
  let st = Gen.query_rng ~seed:ctx.Workloads.seed in
  let n = max 1 (min 10_000 e2e.Workloads.rounds) in
  for k = 1 to n do
    let meth, params = Gen.next_query st targets in
    Trace.request (100 + k) (fun () ->
        ignore (dispatch acc handler conn ~meth (Wire.request_line ~id:k meth params)))
  done;
  let h = handler_metrics acc in
  let client_p50 = detail e2e "query_p50_us" in
  let transport_query = client_p50 -. med acc "dispatch" in
  {
    layer =
      stage_metrics (total acc)
      @ h
      @ [ ("transport.query_us", transport_query); ("process.startup_ms", startup_ms ctx) ];
    notes =
      [
        Printf.sprintf
          "query_p50_us (untraced) %.2f = decode %.2f + dispatch %.2f + transport %.2f (over %d replayed requests)"
          client_p50 (med acc "protocol.decode_us")
          (med acc "dispatch" -. med acc "protocol.decode_us")
          transport_query n;
      ];
  }

(* Every per-layer metric in BENCHMARK.json order, 0 where the workload
   never calls the layer. *)
let run ctx (e2e : Workloads.result) =
  let o =
    match e2e.Workloads.workload with
    | "suite" ->
      cli ctx ~programs:(Array.to_list ctx.Workloads.programs) ~flags:[ "--cs" ]
        ~analyze_args:(fun f -> [ "analyze"; "-s"; f ]) ~reps:3
    | "linux100k" ->
      cli ctx ~programs:[ "linux100k" ] ~flags:[ "--par"; "3" ]
        ~analyze_args:(fun f -> [ "analyze"; f ]) ~reps:1
    | "ide-bc" -> ide_bc ctx e2e
    | "serve-warm" -> serve_warm ctx e2e
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  ( List.map
      (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name o.layer)))
      metric_units,
    o.notes )
