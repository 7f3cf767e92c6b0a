(* The single front door to the analysis pipeline.

   Every client (CLI, examples, bench harness, figure generator, query
   server) used to hand-roll  read_file -> Norm.compile ->
   Vdg_build.build -> Ci_solver.solve -> Cs_solver.solve.  The engine
   owns that sequence behind one request-driven entry point:

     match Engine.analyze Engine.default_request (Engine.load_file "prog.c") with
     | Ok { td_analysis = Some a; _ } ->
       ... a.ci ...                     (* context-insensitive solution *)
       ... Engine.cs a ...              (* CS solution, solved on demand *)
       ... a.telemetry ...              (* per-phase times + counters *)

   Phases: load -> frontend (preproc/parse/sema/SIL) -> vdg (SSA) ->
   ci (Figure 1) -> cs (Figure 5, lazily forced).  Each phase is timed
   into the analysis' Telemetry.t; solver cost counters are captured so
   the paper's Section 4.2 cost story can be emitted as JSON.

   [analyze] optionally consults an Engine_cache.t keyed by a digest of
   the source text and the configuration fingerprint: an on-disk store
   (Marshal, version-guarded) that lets a later process skip the solve.

   Failure is a value, not an exception: [analyze] returns
   ('a, error) result, and a Budget threaded into the solvers powers a
   precision-degradation ladder Cs -> Ci -> Andersen -> Steensgaard —
   the paper's headline (~2% extra precision for orders of magnitude of
   cost) read as an engineering lever: under resource pressure, trade
   precision for latency instead of failing. *)

type input = {
  in_file : string;    (* display name, used in diagnostics and telemetry *)
  in_source : string;
  in_load_seconds : float;
}

type config = {
  ci_config : Ci_solver.config;
  cs_config : Cs_solver.config;
  vdg_mode : Vdg_build.mode;
}

let default_config =
  {
    ci_config = Ci_solver.default_config;
    cs_config = Cs_solver.default_config;
    vdg_mode = Vdg_build.Sparse;
  }

(* ---- the precision ladder -------------------------------------------------------- *)

(* Dyck sits between Andersen and Ci: field-sensitive like Ci (so
   strictly above the field-insensitive baselines) but flow-insensitive —
   one global store relation, no strong updates — so its answers are a
   sound superset of Ci's. *)
type tier = Steensgaard | Andersen | Dyck | Ci | Cs

let tier_rank = function
  | Steensgaard -> 0
  | Andersen -> 1
  | Dyck -> 2
  | Ci -> 3
  | Cs -> 4

let string_of_tier = function
  | Steensgaard -> "steensgaard"
  | Andersen -> "andersen"
  | Dyck -> "dyck"
  | Ci -> "ci"
  | Cs -> "cs"

let tier_of_string = function
  | "steensgaard" -> Some Steensgaard
  | "andersen" -> Some Andersen
  | "dyck" -> Some Dyck
  | "ci" -> Some Ci
  | "cs" -> Some Cs
  | _ -> None

let all_tiers = [ Steensgaard; Andersen; Dyck; Ci; Cs ]

type degradation = { d_from : tier; d_to : tier; d_reason : Budget.reason }

let degradation_json d =
  Ejson.Assoc
    [
      ("from", Ejson.String (string_of_tier d.d_from));
      ("to", Ejson.String (string_of_tier d.d_to));
      ("reason", Ejson.String (Budget.string_of_reason d.d_reason));
    ]

(* ---- the error taxonomy ---------------------------------------------------------- *)

type error =
  | Frontend_error of { fe_loc : Srcloc.t; fe_message : string }
  | Budget_exhausted of { be_tier : tier; be_reason : Budget.reason }
  | Cancelled

let error_message = function
  | Frontend_error { fe_loc; fe_message } ->
    Printf.sprintf "%s: %s" (Srcloc.to_string fe_loc) fe_message
  | Budget_exhausted { be_tier; be_reason } ->
    Printf.sprintf "budget exhausted (%s) at tier %s"
      (Budget.string_of_reason be_reason) (string_of_tier be_tier)
  | Cancelled -> "cancelled"

let error_json e =
  let kind, fields =
    match e with
    | Frontend_error { fe_loc; fe_message } ->
      ( "frontend-error",
        [
          ("loc", Ejson.String (Srcloc.to_string fe_loc));
          ("message", Ejson.String fe_message);
        ] )
    | Budget_exhausted { be_tier; be_reason } ->
      ( "budget-exhausted",
        [
          ("tier", Ejson.String (string_of_tier be_tier));
          ("reason", Ejson.String (Budget.string_of_reason be_reason));
        ] )
    | Cancelled -> ("cancelled", [])
  in
  Ejson.Assoc (("error", Ejson.String kind) :: fields)

let frontend_error loc msg =
  Error (Frontend_error { fe_loc = loc; fe_message = msg })

let budget_fields b =
  List.map
    (fun (k, v) ->
      (k, match v with `Int i -> Ejson.Int i | `Float f -> Ejson.Float f))
    (Budget.consumption b)

(* The context-sensitive half is demand-driven: many clients (mod/ref,
   call graphs, purity) only need CI.  The cell solves it at most once. *)
type cs_cell = {
  mutable cc_cs : Cs_solver.t option;
  mutable cc_seconds : float;
  mutable cc_counters : Telemetry.solver_counters option;
  cc_lock : Mutex.t;
  cc_solve : ?budget:Budget.t -> unit -> Cs_solver.t;
  cc_on_solved : Cs_solver.t -> unit;  (* e.g. refresh the disk cache entry *)
}

type analysis = {
  a_input : input;
  a_config : config;
  prog : Sil.program;
  graph : Vdg.t;
  ci : Ci_solver.t;
  cs_cell : cs_cell;
  telemetry : Telemetry.t;
  a_digests : ((string * string) list * string) Lazy.t;
      (* per-procedure canonical digests + program digest (Proc_summary),
         the baseline identity a later incremental update diffs against;
         lazy because only incremental clients force it *)
}

(* ---- loading ------------------------------------------------------------------- *)

(* Reads the whole file; the channel is closed even if reading raises
   (the old clients leaked it on a short read). *)
let load_file path =
  let t0 = Unix.gettimeofday () in
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  { in_file = path; in_source = source; in_load_seconds = Unix.gettimeofday () -. t0 }

let load_string ?(file = "<memory>.c") source =
  { in_file = file; in_source = source; in_load_seconds = 0. }

(* ---- staged phase API ----------------------------------------------------------- *)

(* For clients that need a single phase (the bench harness times them
   individually; the interpreter only needs the SIL program). *)
let compile input = Norm.compile ~file:input.in_file input.in_source

let build_graph ?(config = default_config) prog =
  Vdg_build.build ~mode:config.vdg_mode prog

let solve_ci ?(config = default_config) ?budget graph =
  Ci_solver.solve ~config:config.ci_config ?budget graph

let solve_cs ?(config = default_config) ?budget graph ~ci =
  Cs_solver.solve ~config:config.cs_config ?budget graph ~ci

(* ---- cache plumbing ------------------------------------------------------------- *)

let fingerprint (c : config) ~file =
  let schedule =
    match c.ci_config.Ci_solver.schedule with
    | Ci_solver.Fifo -> "fifo"
    | Ci_solver.Lifo -> "lifo"
    | Ci_solver.Random_order seed -> "rand:" ^ string_of_int seed
  in
  Printf.sprintf "file=%s;su=%b;sched=%s;prune=%b;budget=%d;mode=%s" file
    c.ci_config.Ci_solver.strong_updates schedule
    c.cs_config.Cs_solver.ci_pruning c.cs_config.Cs_solver.max_meets
    (match c.vdg_mode with Vdg_build.Sparse -> "sparse" | Vdg_build.Dense -> "dense")

let cache_key config input =
  Engine_cache.key ~source:input.in_source
    ~fingerprint:(fingerprint config ~file:input.in_file)

(* the on-disk payload: everything needed to rebuild an analysis without
   re-solving.  No closures — all solver state is plain data. *)
type stored = {
  s_prog : Sil.program;
  s_graph : Vdg.t;
  s_ci : Ci_solver.t;
  s_cs : Cs_solver.t option;
  s_telemetry : Telemetry.t;
  s_digests : (string * string) list;  (* per-procedure summary digests *)
  s_program_digest : string;
      (* persisted so a restarted session resumes incrementality against
         the exact identity of the solved snapshot *)
}

(* ---- counters -------------------------------------------------------------------- *)

let ci_counters ci : Telemetry.solver_counters =
  let ps = Ci_solver.ptset_stats ci in
  {
    Telemetry.sc_flow_in = Ci_solver.flow_in_count ci;
    sc_flow_out = Ci_solver.flow_out_count ci;
    sc_worklist_pushes = Ci_solver.worklist_pushes ci;
    sc_worklist_pops = Ci_solver.worklist_pops ci;
    sc_worklist_skips = 0;  (* the CI worklist never skips an item *)
    sc_pairs = (Stats.ci_pair_counts ci).Stats.pc_total;
    sc_meet_cache_hits = ps.Ptset.st_cache_hits;
    sc_meet_cache_misses = ps.Ptset.st_cache_misses;
    sc_interned_sets = ps.Ptset.st_sets;
    sc_peak_table_bytes = ps.Ptset.st_peak_bytes;
  }

let cs_counters graph cs : Telemetry.solver_counters =
  let ps = Cs_solver.ptset_stats cs in
  {
    Telemetry.sc_flow_in = Cs_solver.flow_in_count cs;
    sc_flow_out = Cs_solver.flow_out_count cs;
    sc_worklist_pushes = Cs_solver.worklist_pushes cs;
    sc_worklist_pops = Cs_solver.worklist_pops cs;
    sc_worklist_skips = Cs_solver.worklist_stale_skips cs;
    sc_pairs = (Stats.cs_pair_counts cs graph).Stats.pc_total;
    sc_meet_cache_hits = ps.Ptset.st_cache_hits;
    sc_meet_cache_misses = ps.Ptset.st_cache_misses;
    sc_interned_sets = ps.Ptset.st_sets;
    sc_peak_table_bytes = ps.Ptset.st_peak_bytes;
  }

(* Dyck pairs sit on value outputs and in the one global store. *)
let dyck_solver_counters graph d : Telemetry.solver_counters =
  let ps = Dyck_solver.ptset_stats d in
  {
    Telemetry.sc_flow_in = Dyck_solver.flow_in_count d;
    sc_flow_out = Dyck_solver.flow_out_count d;
    sc_worklist_pushes = Dyck_solver.worklist_pushes d;
    sc_worklist_pops = Dyck_solver.worklist_pops d;
    sc_worklist_skips = 0;
    sc_pairs =
      (Stats.count_pairs graph (fun nid ->
           Ptpair.Set.cardinal (Dyck_solver.pairs d nid)))
        .Stats.pc_total
      + List.length (Dyck_solver.store_pairs d);
    sc_meet_cache_hits = ps.Ptset.st_cache_hits;
    sc_meet_cache_misses = ps.Ptset.st_cache_misses;
    sc_interned_sets = ps.Ptset.st_sets;
    sc_peak_table_bytes = ps.Ptset.st_peak_bytes;
  }

(* ---- the pipeline ----------------------------------------------------------------- *)

let make_cs_cell ?(seconds = 0.) ?counters ?(on_solved = fun _ -> ()) ~solve
    prior =
  {
    cc_cs = prior;
    cc_seconds = seconds;
    cc_counters = counters;
    cc_lock = Mutex.create ();
    cc_solve = solve;
    cc_on_solved = on_solved;
  }

(* Force the context-sensitive solve; idempotent, safe under domains. *)
let cs a =
  let cell = a.cs_cell in
  Mutex.lock cell.cc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cell.cc_lock)
    (fun () ->
      let result =
        match cell.cc_cs with
        | Some cs -> cs
        | None ->
          let t0 = Unix.gettimeofday () in
          let cs = cell.cc_solve () in
          cell.cc_seconds <- Unix.gettimeofday () -. t0;
          cell.cc_counters <- Some (cs_counters a.graph cs);
          cell.cc_cs <- Some cs;
          cell.cc_on_solved cs;
          cs
      in
      (* reflect the solve into the analysis' telemetry, once *)
      if Telemetry.phase_seconds a.telemetry "cs" = None then
        Telemetry.record_phase a.telemetry "cs" cell.cc_seconds;
      if a.telemetry.Telemetry.t_cs = None then
        a.telemetry.Telemetry.t_cs <- cell.cc_counters;
      a.telemetry.Telemetry.t_tier <- Some (string_of_tier Cs);
      result)

(* Budget-governed variant: force the CS solve under a budget, degrading
   to the already-solved CI tier instead of raising when the budget
   trips.  This is the acceptance-critical path — an exhausted CS solve
   returns [Ok] with [co_tier = Ci], never an exception. *)
type cs_outcome = {
  co_tier : tier;  (* [Cs], or [Ci] when the solve was abandoned *)
  co_cs : Cs_solver.t option;
  co_degradation : degradation option;
}

let cs_tiered ?budget a =
  let cell = a.cs_cell in
  Mutex.lock cell.cc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cell.cc_lock)
    (fun () ->
      match cell.cc_cs with
      | Some cs -> Ok { co_tier = Cs; co_cs = Some cs; co_degradation = None }
      | None -> (
        let budget =
          match budget with Some b -> b | None -> Budget.unlimited ()
        in
        let t0 = Unix.gettimeofday () in
        match cell.cc_solve ~budget () with
        | cs ->
          cell.cc_seconds <- Unix.gettimeofday () -. t0;
          cell.cc_counters <- Some (cs_counters a.graph cs);
          cell.cc_cs <- Some cs;
          cell.cc_on_solved cs;
          if Telemetry.phase_seconds a.telemetry "cs" = None then
            Telemetry.record_phase a.telemetry "cs" cell.cc_seconds;
          if a.telemetry.Telemetry.t_cs = None then
            a.telemetry.Telemetry.t_cs <- cell.cc_counters;
          a.telemetry.Telemetry.t_tier <- Some (string_of_tier Cs);
          Ok { co_tier = Cs; co_cs = Some cs; co_degradation = None }
        | exception Budget.Exhausted Budget.Cancelled -> Error Cancelled
        | exception Budget.Exhausted r ->
          Ok
            {
              co_tier = Ci;
              co_cs = None;
              co_degradation = Some { d_from = Cs; d_to = Ci; d_reason = r };
            }
        | exception Cs_solver.Budget_exceeded ->
          (* the legacy max_meets fuel in the CS config *)
          Ok
            {
              co_tier = Ci;
              co_cs = None;
              co_degradation =
                Some { d_from = Cs; d_to = Ci; d_reason = Budget.Meet_limit };
            }))

let cs_forced a = a.cs_cell.cc_cs <> None

let populate_shape_counters telemetry prog graph =
  telemetry.Telemetry.t_functions <- List.length prog.Sil.p_functions;
  telemetry.Telemetry.t_vdg_nodes <- Vdg.n_nodes graph;
  telemetry.Telemetry.t_alias_outputs <- Stats.alias_related_outputs graph

let store_payload cache key a =
  let telemetry = Telemetry.copy a.telemetry in
  (* the CS back-fill into [a.telemetry] happens only when a client reads
     the solve through [cs]; when storing from on_solved the cell already
     holds the time/counters, so fold them in here *)
  (if a.cs_cell.cc_cs <> None then begin
     if Telemetry.phase_seconds telemetry "cs" = None then
       Telemetry.record_phase telemetry "cs" a.cs_cell.cc_seconds;
     if telemetry.Telemetry.t_cs = None then
       telemetry.Telemetry.t_cs <- a.cs_cell.cc_counters;
     telemetry.Telemetry.t_tier <- Some (string_of_tier Cs)
   end);
  let digests, program_digest = Lazy.force a.a_digests in
  Engine_cache.store_disk cache key
    {
      s_prog = a.prog;
      s_graph = a.graph;
      s_ci = a.ci;
      s_cs = a.cs_cell.cc_cs;
      s_telemetry = telemetry;
      s_digests = digests;
      s_program_digest = program_digest;
    }

(* ---- incremental re-analysis ------------------------------------------------------- *)

let incr_snapshot a : Incr_engine.prev =
  let digests, program_digest = Lazy.force a.a_digests in
  {
    Incr_engine.pv_prog = a.prog;
    pv_graph = a.graph;
    pv_ci = a.ci;
    pv_digests = digests;
    pv_program_digest = program_digest;
  }

(* ---- the exhaustive pipeline --------------------------------------------------------- *)

let new_telemetry input =
  let telemetry =
    Telemetry.create ~file:input.in_file
      ~source_bytes:(String.length input.in_source)
  in
  Telemetry.record_phase telemetry "load" input.in_load_seconds;
  telemetry

(* Compile, build the VDG and solve CI — cold, or, given the previous
   snapshot, by splicing it through Incr_engine (only procedures whose
   canonical digest changed, plus whatever the splice checks force in,
   are re-solved; the result is digest-identical to a cold solve).
   Either way the result is an ordinary analysis with a lazy CS half,
   stored under [store]'s key into its cache when given (again once the
   CS half is solved).  Raises Srcloc.Error and Budget.Exhausted. *)
let solve_fresh ?store ~budget ~prev config input =
  let telemetry = new_telemetry input in
  let prog = Telemetry.time telemetry "frontend" (fun () -> compile input) in
  Budget.check_now budget;
  let graph = Telemetry.time telemetry "vdg" (fun () -> build_graph ~config prog) in
  let ci, incr =
    match prev with
    | None ->
      (Telemetry.time telemetry "ci" (fun () -> solve_ci ~config ~budget graph), None)
    | Some prev ->
      let outcome =
        Telemetry.time telemetry "incr" (fun () ->
            Incr_engine.update ~config:config.ci_config ~budget ~prev prog graph)
      in
      telemetry.Telemetry.t_incr <- Some outcome.Incr_engine.o_stats;
      (outcome.Incr_engine.o_ci, Some outcome)
  in
  populate_shape_counters telemetry prog graph;
  telemetry.Telemetry.t_ci <- Some (ci_counters ci);
  telemetry.Telemetry.t_tier <- Some (string_of_tier Ci);
  let rec analysis =
    lazy
      {
        a_input = input;
        a_config = config;
        prog;
        graph;
        ci;
        cs_cell =
          make_cs_cell
            ~solve:(fun ?budget () -> solve_cs ~config ?budget graph ~ci)
            ~on_solved:(fun _ ->
              match store with
              | Some (c, key) -> store_payload c key (Lazy.force analysis)
              | None -> ())
            None;
        telemetry;
        a_digests =
          lazy (Proc_summary.digests prog, Proc_summary.program_digest prog);
      }
  in
  let a = Lazy.force analysis in
  Option.iter (fun (c, key) -> store_payload c key a) store;
  (a, incr)

let of_stored ~cache ~key config input (s : stored) =
  let telemetry = Telemetry.copy s.s_telemetry in
  telemetry.Telemetry.t_cache <- Telemetry.Disk_hit;
  let rec analysis =
    lazy
      {
        a_input = input;
        a_config = config;
        prog = s.s_prog;
        graph = s.s_graph;
        ci = s.s_ci;
        cs_cell =
          make_cs_cell
            ~seconds:
              (Option.value ~default:0.
                 (Telemetry.phase_seconds s.s_telemetry "cs"))
            ?counters:s.s_telemetry.Telemetry.t_cs
            ~solve:(fun ?budget () -> solve_cs ~config ?budget s.s_graph ~ci:s.s_ci)
            ~on_solved:(fun _ -> store_payload cache key (Lazy.force analysis))
            s.s_cs;
        telemetry;
        a_digests = lazy (s.s_digests, s.s_program_digest);
      }
  in
  Lazy.force analysis

(* A solved analysis for [input] from the cache's disk snapshot.  A
   damaged entry is purged and reads as a miss. *)
let find_cached cache ~key config input =
  Option.map
    (of_stored ~cache ~key config input)
    (Engine_cache.find_disk cache key : stored option)

(* An incremental request splices rather than looking the result up, so
   the result always carries the outcome of the splice. *)
let solve_exhaustive ?cache ~budget ~prev config input =
  match (cache, prev) with
  | None, _ -> solve_fresh ~budget ~prev config input
  | Some c, Some _ ->
    solve_fresh ~store:(c, cache_key config input) ~budget ~prev config input
  | Some c, None -> (
    let key = cache_key config input in
    match find_cached c ~key config input with
    | Some a -> (a, None)
    | None ->
      Engine_cache.record_miss c;
      solve_fresh ~store:(c, key) ~budget ~prev config input)

(* ---- the degradation ladder -------------------------------------------------------- *)

type baseline = Base_andersen of Andersen.t | Base_steensgaard of Steensgaard.t

type tiered = {
  td_input : input;
  td_tier : tier;
  td_analysis : analysis option;  (* present iff td_tier >= Ci *)
  td_dyck : Dyck_solver.t option;  (* present iff the run landed on the dyck rung *)
  td_baseline : baseline option;  (* present iff td_tier < Dyck *)
  td_prog : Sil.program;
  td_telemetry : Telemetry.t;
  td_degradations : degradation list;
  td_incr : Incr_engine.outcome option;  (* present iff the CI solve was spliced *)
}

(* A tiered view's telemetry is a private copy annotated with the tier
   achieved, the ladder descents, and the budget consumed — the record
   inside [td_analysis] keeps its own unannotated history. *)
let tiered input prog telemetry ~tier ~degradations ~budget ?analysis ?dyck
    ?baseline ?incr () =
  let telemetry = Telemetry.copy telemetry in
  telemetry.Telemetry.t_tier <- Some (string_of_tier tier);
  List.iter
    (fun d ->
      Telemetry.record_degradation telemetry
        ~from_tier:(string_of_tier d.d_from) ~to_tier:(string_of_tier d.d_to)
        ~reason:(Budget.string_of_reason d.d_reason))
    degradations;
  telemetry.Telemetry.t_budget <- budget_fields budget;
  {
    td_input = input;
    td_tier = tier;
    td_analysis = analysis;
    td_dyck = dyck;
    td_baseline = baseline;
    td_prog = prog;
    td_telemetry = telemetry;
    td_degradations = degradations;
    td_incr = incr;
  }

let of_analysis ?incr a ~tier ~degradations ~budget =
  tiered a.a_input a.prog a.telemetry ~tier ~degradations ~budget ~analysis:a
    ?incr ()

(* Fall back below Ci: recompile (cheap next to any solve) and run the
   flow-insensitive baselines.  Andersen gets a restarted budget (fresh
   operation counters, same absolute deadline and cancel flag);
   Steensgaard is the terminal tier and runs unbudgeted apart from a
   cancellation check — it is near-linear and must always produce an
   answer for the ladder to bottom out on.  Callers only descend here
   when [min_tier] is at most Andersen. *)
let baseline_descent ~budget ~min_tier ~degradations input =
  let telemetry = new_telemetry input in
  match Telemetry.time telemetry "frontend" (fun () -> compile input) with
  | exception Srcloc.Error (loc, msg) -> frontend_error loc msg
  | prog -> (
    (* no VDG at these tiers, so only the function count is known *)
    telemetry.Telemetry.t_functions <- List.length prog.Sil.p_functions;
    let finish tier baseline degradations =
      Ok (tiered input prog telemetry ~tier ~degradations ~budget ~baseline ())
    in
    match
      Telemetry.time telemetry "andersen" (fun () ->
          Andersen.analyze ~budget:(Budget.restart budget) prog)
    with
    | t -> finish Andersen (Base_andersen t) degradations
    | exception Budget.Exhausted Budget.Cancelled -> Error Cancelled
    | exception Budget.Exhausted r ->
      if tier_rank min_tier >= tier_rank Andersen then
        Error (Budget_exhausted { be_tier = Andersen; be_reason = r })
      else if Budget.is_cancelled budget then Error Cancelled
      else
        finish Steensgaard
          (Base_steensgaard
             (Telemetry.time telemetry "steensgaard" (fun () ->
                  Steensgaard.analyze prog)))
          (degradations
          @ [ { d_from = Andersen; d_to = Steensgaard; d_reason = r } ]))

(* The dyck rung: compile, build the VDG and run the exhaustive Dyck
   solve, all under the rung's budget — an exhaustion anywhere takes the
   floor-or-descend exit below.  Queries afterwards are lookups. *)
let dyck_fresh ~config ~budget ~min_tier ~degradations input =
  let telemetry = new_telemetry input in
  match
    let prog = Telemetry.time telemetry "frontend" (fun () -> compile input) in
    Budget.check_now budget;
    let graph =
      Telemetry.time telemetry "vdg" (fun () -> build_graph ~config prog)
    in
    Budget.check_now budget;
    let dyck =
      Telemetry.time telemetry "dyck" (fun () ->
          Dyck_solver.solve ~config:config.ci_config ~budget graph)
    in
    (prog, graph, dyck)
  with
  | exception Srcloc.Error (loc, msg) -> frontend_error loc msg
  | exception Budget.Exhausted Budget.Cancelled -> Error Cancelled
  | exception Budget.Exhausted r ->
    if tier_rank min_tier >= tier_rank Dyck then
      Error (Budget_exhausted { be_tier = Dyck; be_reason = r })
    else
      baseline_descent ~budget ~min_tier
        ~degradations:
          (degradations @ [ { d_from = Dyck; d_to = Andersen; d_reason = r } ])
        input
  | prog, graph, dyck ->
    populate_shape_counters telemetry prog graph;
    telemetry.Telemetry.t_dyck <- Some (dyck_solver_counters graph dyck);
    Ok (tiered input prog telemetry ~tier:Dyck ~degradations ~budget ~dyck ())

(* ---- the entry point ------------------------------------------------------------------ *)

type request = {
  want : tier;
  min_tier : tier;
  budget : Budget.t option;
  prev : Incr_engine.prev option;
}

let default_request =
  { want = Ci; min_tier = Steensgaard; budget = None; prev = None }

(* The exhaustive pipeline under the ladder: solve (or splice, or find
   cached) CI, force CS when wanted, and descend on exhaustion. *)
let exhaustive ?cache ~config ~budget ~want ~min_tier ~prev input =
  match solve_exhaustive ?cache ~budget ~prev config input with
  | a, incr -> (
    let finish tier degradations =
      Ok (of_analysis ?incr a ~tier ~degradations ~budget)
    in
    if tier_rank want < tier_rank Cs then
      finish (if cs_forced a then Cs else Ci) []
    else
      match cs_tiered ~budget a with
      | Error e -> Error e
      | Ok { co_degradation = None; _ } -> finish Cs []
      | Ok { co_degradation = Some d; _ } ->
        if tier_rank min_tier >= tier_rank Cs then
          Error (Budget_exhausted { be_tier = Cs; be_reason = d.d_reason })
        else finish Ci [ d ])
  | exception Srcloc.Error (loc, msg) -> frontend_error loc msg
  | exception Budget.Exhausted Budget.Cancelled -> Error Cancelled
  | exception Budget.Exhausted r ->
    if tier_rank min_tier >= tier_rank Ci then
      Error (Budget_exhausted { be_tier = Ci; be_reason = r })
    else if min_tier = Dyck then
      (* an explicit dyck floor recovers at the dyck rung: fresh
         operation counters, same absolute deadline (a dead deadline
         trips the re-check inside and errors at the floor) *)
      dyck_fresh ~config ~budget:(Budget.restart budget) ~min_tier
        ~degradations:[ { d_from = Ci; d_to = Dyck; d_reason = r } ]
        input
    else
      (* the default descent skips the dyck rung: a client that wanted
         the exhaustive CI solution is better served by a baseline that
         always answers than by a second fixpoint under the same
         deadline *)
      baseline_descent ~budget ~min_tier
        ~degradations:[ { d_from = Ci; d_to = Andersen; d_reason = r } ]
        input

let analyze ?(config = default_config) ?cache req input =
  let min_tier = req.min_tier in
  (* a floor above the aim demands the floor outright *)
  let want =
    if tier_rank min_tier > tier_rank req.want then min_tier else req.want
  in
  let budget =
    match req.budget with Some b -> b | None -> Budget.unlimited ()
  in
  if want <> Dyck then
    exhaustive ?cache ~config ~budget ~want ~min_tier ~prev:req.prev input
  else
    (* A warm full solution outranks the dyck tier; peek the cache
       without recording a miss (a dyck run is not a solve the cache
       failed to serve). *)
    match
      Option.bind cache (fun c ->
          find_cached c ~key:(cache_key config input) config input)
    with
    | Some a ->
      Ok
        (of_analysis a
           ~tier:(if cs_forced a then Cs else Ci)
           ~degradations:[] ~budget)
    | None -> dyck_fresh ~config ~budget ~min_tier ~degradations:[] input

(* ---- queries at degraded tiers ------------------------------------------------------ *)

(* Below Ci there is no VDG, so operations are identified by source line;
   both baselines are field-insensitive, so two line-level target sets
   overlap iff they share an abstract location. *)
let line_locations td line =
  match td.td_baseline with
  | Some (Base_andersen t) -> Some (Andersen.memops_on_line t line)
  | Some (Base_steensgaard t) -> Some (Steensgaard.memops_on_line t line)
  | None -> None

let overlap a b =
  List.exists (fun l -> List.exists (fun l' -> Absloc.compare l l' = 0) b) a

let line_may_alias td la lb =
  match (line_locations td la, line_locations td lb) with
  | Some a, Some b -> Some (overlap a b)
  | _ -> None
