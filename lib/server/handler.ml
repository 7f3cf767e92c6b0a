(* Method dispatch for the alias-query server.

   Every query method resolves a session three ways, in order: an
   explicit "session" id, a "file" path (implicitly opened — an unchanged
   file lands on the live session without re-solving), or the
   connection's default session (the last one opened on this
   connection, which is what scripted `analyze query` transcripts use).
   Query evaluation holds the session's lock, so requests on different
   sessions run in parallel across worker domains while same-session
   requests serialize.

   Governance (protocol v2): "open", "may_alias" and "lint" accept
   "deadline_ms" / "min_tier" parameters; a deadline-bounded solve that
   exhausts its budget degrades down the precision ladder instead of
   failing, and responses carry the tier that actually answered.  Every
   request may carry a "protocol" version; versions newer than ours are
   rejected with a structured unsupported-version error.

   The handler is shared by every connection; the per-method latency
   tallies behind the "stats" method carry their own lock. *)

(* Per-connection state: the default session for requests that name
   neither a session nor a file. *)
type conn = { mutable cn_session : string option }

let new_conn () = { cn_session = None }

type method_stat = {
  ms_samples : float array;
      (* wall seconds, a ring buffer of the most recent [sample_window]
         samples (slot [ms_count mod sample_window] is written next) —
         a bounded recency window, so the per-"stats" percentile sort
         stays O(window) however long the server has been up, and
         recording stays allocation-free.  [ms_count] is the all-time
         total. *)
  mutable ms_count : int;
  mutable ms_errors : int;
}

(* "stats" percentiles cover the most recent [sample_window] samples per
   method.  Kept small: every "stats" call copies and sorts each
   method's window, and on the load-driver mix "stats" is ~3% of all
   traffic. *)
let sample_window = 512

(* The valid window, as a fresh flat array safe to sort outside the
   stats lock; ring order is irrelevant to percentiles. *)
let stat_window ms = Array.sub ms.ms_samples 0 (min ms.ms_count sample_window)

type t = {
  h_sessions : Session.t;
  h_started : float;
  h_lock : Mutex.t;
  h_methods : (string, method_stat) Hashtbl.t;
  h_tier_answers : (string, int) Hashtbl.t;
      (* answers per tier label, across may_alias/points_to (v3 stats) *)
  mutable h_requests : int;
  mutable h_errors : int;
  mutable h_degraded : int;  (* responses that answered below the asked tier *)
  mutable h_pool_width : int;  (* worker domains serving connections *)
}

type outcome =
  | Reply of string
  | Reply_shutdown of string
      (* the response to write before the transport shuts down *)

let create sessions =
  {
    h_sessions = sessions;
    h_started = Unix.gettimeofday ();
    h_lock = Mutex.create ();
    h_methods = Hashtbl.create 16;
    h_tier_answers = Hashtbl.create 8;
    h_requests = 0;
    h_errors = 0;
    h_degraded = 0;
    h_pool_width = 1;
  }

(* The transport reports how many worker domains it actually spawned
   (serve_unix's pool; 1 for stdio), so "stats" can surface the chosen
   width rather than whatever the CLI was asked for. *)
let set_pool_width t n = t.h_pool_width <- max 1 n

let sessions t = t.h_sessions

let note_degraded t n =
  if n > 0 then begin
    Mutex.lock t.h_lock;
    t.h_degraded <- t.h_degraded + n;
    Mutex.unlock t.h_lock
  end

let note_tier_answer t tier =
  Mutex.lock t.h_lock;
  Hashtbl.replace t.h_tier_answers tier
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.h_tier_answers tier));
  Mutex.unlock t.h_lock

(* ---- governed parameters -------------------------------------------------------- *)

let deadline_of_params params =
  match Protocol.opt_int_param params "deadline_ms" with
  | None -> None
  | Some ms when ms <= 0 ->
    Protocol.bad_params "parameter \"deadline_ms\" must be positive"
  | Some ms -> Some (float_of_int ms /. 1000.)

(* A tier named on the wire.  "demand" and "dyck" name the tiers protocol
   v3 and v4 added and this server no longer has.  Both read as ci:
   demand's answers always equaled ci's, and ci is the nearest tier that
   keeps a dyck floor's promise of a node-level answer. *)
let tier_of_wire = function
  | "demand" | "dyck" -> Some Engine.Ci
  | s -> Engine.tier_of_string s

let min_tier_of_string s =
  match tier_of_wire s with
  | Some tier -> tier
  | None ->
    Protocol.bad_params
      "parameter \"min_tier\" must be one of steensgaard, andersen, ci, cs"

let min_tier_of_params params =
  Option.map min_tier_of_string (Protocol.opt_string_param params "min_tier")

let budget_of_params params =
  match deadline_of_params params with
  | None -> None
  | Some s -> Some (Budget.start (Budget.limits_with_deadline s))

(* The v6 query_opts record shared by may_alias/points_to/modref: one
   "opts" object (or the v5 flat parameters) carrying tier, deadline_ms
   and min_tier.  Validated here so every query method rejects the same
   way. *)
let query_opts_of params =
  let o = Protocol.query_opts_of_params params in
  (match o.Protocol.qo_tier with
  | None | Some "cs" -> ()
  | Some s when tier_of_wire s = Some Engine.Ci -> ()
  | Some s ->
    Protocol.bad_params "parameter \"tier\" must be \"ci\" or \"cs\" (got %S)" s);
  (match o.Protocol.qo_deadline_ms with
  | Some ms when ms <= 0 ->
    Protocol.bad_params "parameter \"deadline_ms\" must be positive"
  | _ -> ());
  Option.iter (fun s -> ignore (min_tier_of_string s)) o.Protocol.qo_min_tier;
  o

let budget_of_opts (o : Protocol.query_opts) =
  match o.Protocol.qo_deadline_ms with
  | None -> None
  | Some ms ->
    Some (Budget.start (Budget.limits_with_deadline (float_of_int ms /. 1000.)))

(* Enforce the opts floor on the tier that actually answered. *)
let check_opts_floor (o : Protocol.query_opts) answered =
  match o.Protocol.qo_min_tier with
  | None -> ()
  | Some floor_s -> (
    let floor = min_tier_of_string floor_s in
    match Engine.tier_of_string answered with
    | Some a when Engine.tier_rank a >= Engine.tier_rank floor -> ()
    | _ ->
      raise
        (Session.Tier_unavailable
           (Printf.sprintf
              "answered at tier %s, below the requested min_tier %s" answered
              floor_s)))

(* ---- session resolution --------------------------------------------------------- *)

exception Session_error of string

let resolve t conn params =
  match Protocol.opt_string_param params "session" with
  | Some id -> (
    match Session.find t.h_sessions id with
    | Some e -> e
    | None -> raise (Session_error (Printf.sprintf "unknown session %S" id)))
  | None -> (
    match Protocol.opt_string_param params "file" with
    | Some path ->
      let r = Session.open_path t.h_sessions path in
      conn.cn_session <- Some r.Session.or_entry.Session.ses_id;
      r.Session.or_entry
    | None -> (
      match conn.cn_session with
      | Some id -> (
        match Session.find t.h_sessions id with
        | Some e -> e
        | None ->
          raise
            (Session_error
               "the connection's default session was closed or evicted"))
      | None ->
        raise
          (Session_error
             "no session: pass \"session\" or \"file\", or call \"open\" first")))

(* ---- JSON helpers --------------------------------------------------------------- *)

let paths_json paths =
  Ejson.List (List.map (fun p -> Ejson.String (Apath.to_string p)) paths)

let op_json (o : Modref.op) =
  Ejson.Assoc
    [
      ("node", Ejson.Int o.Modref.op_node);
      ("rw", Ejson.String (Checker.string_of_rw o.Modref.op_rw));
      ("function", Ejson.String o.Modref.op_fun);
      ("loc", Ejson.String (Checker.where o.Modref.op_loc));
      ("targets", paths_json o.Modref.op_targets);
    ]

let degradations_json ds =
  Ejson.List (List.map Engine.degradation_json ds)

let defined_functions (e : Session.entry) =
  List.filter_map
    (fun fd ->
      let name = fd.Sil.fd_name in
      if name = Sil.global_init_name then None else Some name)
    e.Session.ses_tiered.Engine.td_prog.Sil.p_functions

let check_function e params =
  match Protocol.opt_string_param params "function" with
  | None -> None
  | Some f ->
    if List.mem f (defined_functions e) then Some f
    else Protocol.bad_params "unknown function %S" f

(* ---- methods -------------------------------------------------------------------- *)

let do_ping _t _params =
  Ejson.Assoc
    [
      ("pong", Ejson.Bool true);
      ("protocol_version", Ejson.Int Protocol.protocol_version);
      ( "capabilities",
        Ejson.List
          (List.map (fun c -> Ejson.String c) Protocol.capabilities) );
    ]

(* Every open is exhaustive.  The v3 "demand" and v4 "dyck" modes named
   lazier tiers this server no longer has; they still parse, and open an
   exhaustive session like "exhaustive" or no mode at all. *)
let check_mode params =
  match Protocol.opt_string_param params "mode" with
  | None | Some ("exhaustive" | "demand" | "dyck") -> ()
  | Some s ->
    Protocol.bad_params "parameter \"mode\" must be \"exhaustive\" (got %S)" s

let do_open t conn params =
  let path = Protocol.string_param params "file" in
  let deadline_s = deadline_of_params params in
  let min_tier = min_tier_of_params params in
  check_mode params;
  (* a v6 "jobs" parameter is accepted and ignored: the CI solve is
     always sequential, so it never changed the session produced *)
  let r = Session.open_path ?deadline_s ?min_tier t.h_sessions path in
  let e = r.Session.or_entry in
  conn.cn_session <- Some e.Session.ses_id;
  let td = e.Session.ses_tiered in
  note_degraded t (List.length td.Engine.td_degradations);
  let tele = td.Engine.td_telemetry in
  Ejson.Assoc
    ([
       ("session", Ejson.String e.Session.ses_id);
       ("file", Ejson.String path);
       ( "status",
         Ejson.String
           (match r.Session.or_status with
           | `Session_hit -> "session-hit"
           | `Solved st -> Telemetry.string_of_cache_status st) );
       ("tier", Ejson.String (Engine.string_of_tier td.Engine.td_tier));
       ("degradations", degradations_json td.Engine.td_degradations);
       ("functions", Ejson.Int tele.Telemetry.t_functions);
       ("vdg_nodes", Ejson.Int tele.Telemetry.t_vdg_nodes);
       ("alias_outputs", Ejson.Int tele.Telemetry.t_alias_outputs);
       ("bytes", Ejson.Int e.Session.ses_bytes);
       ("pipeline_seconds", Ejson.Float (Telemetry.total_seconds tele));
     ]
    @
    match e.Session.ses_digest with
    | Some d -> [ ("solution_digest", Ejson.String d) ]
    | None -> [])

let do_close t conn params =
  match Protocol.opt_string_param params "file" with
  | Some path ->
    (* close-by-path also cancels any solve still in flight for it *)
    let closed = Session.close_path t.h_sessions path in
    Ejson.Assoc [ ("file", Ejson.String path); ("closed", Ejson.Bool closed) ]
  | None ->
    let id =
      match Protocol.opt_string_param params "session" with
      | Some id -> id
      | None -> (
        match conn.cn_session with
        | Some id -> id
        | None -> raise (Session_error "no session to close"))
    in
    let closed = Session.close t.h_sessions id in
    if conn.cn_session = Some id then conn.cn_session <- None;
    Ejson.Assoc
      [ ("session", Ejson.String id); ("closed", Ejson.Bool closed) ]

(* v5: incremental re-analysis of a live session.  The file (or the
   supplied "source" buffer) is re-digested, diffed procedure by
   procedure against the session's solved snapshot, and only the dirty
   region is re-solved; the reply carries the incr_* counters so a
   client can see how much work the edit cost.  The session's id
   changes (identity is content), so the reply's "session" replaces the
   one the client held. *)
let do_update t conn params =
  let path =
    match Protocol.opt_string_param params "file" with
    | Some p -> p
    | None -> (
      match conn.cn_session with
      | Some id -> (
        match Session.find t.h_sessions id with
        | Some e -> e.Session.ses_path
        | None -> raise (Session_error ("no live session " ^ id)))
      | None -> Protocol.bad_params "missing parameter \"file\"")
  in
  let source = Protocol.opt_string_param params "source" in
  match Session.update ?source t.h_sessions path with
  | exception Not_found ->
    raise
      (Session_error
         (Printf.sprintf "no live session for %S (open it first)" path))
  | entry, outcome ->
    if conn.cn_session <> None then
      conn.cn_session <- Some entry.Session.ses_id;
    let td = entry.Session.ses_tiered in
    let s = outcome.Incr_engine.o_stats in
    Ejson.Assoc
      ([
         ("session", Ejson.String entry.Session.ses_id);
         ("file", Ejson.String path);
         ("tier", Ejson.String (Engine.string_of_tier td.Engine.td_tier));
       ]
      @ Telemetry.incr_json s
      @ [
          ( "resolved_procedures",
            Ejson.List
              (List.map
                 (fun f -> Ejson.String f)
                 outcome.Incr_engine.o_dirty) );
          ("bytes", Ejson.Int entry.Session.ses_bytes);
          ( "pipeline_seconds",
            Ejson.Float (Telemetry.total_seconds td.Engine.td_telemetry) );
        ]
      @
      match entry.Session.ses_digest with
      | Some d -> [ ("solution_digest", Ejson.String d) ]
      | None -> [])

(* The two sides of a may_alias question: either VDG node ids ("a"/"b",
   discoverable via the modref method) or source lines ("a_line"/
   "b_line": every indirect operation on that line).  Line resolution
   reads only the graph, never the mod/ref sets. *)
let nodes_for (graph : Vdg.t) params side =
  match Protocol.opt_int_param params side with
  | Some n ->
    if n < 0 || n >= Vdg.n_nodes graph then
      Protocol.bad_params "%S: no VDG node %d" side n
    else [ n ]
  | None -> (
    let line_key = side ^ "_line" in
    match Protocol.opt_int_param params line_key with
    | Some line -> (
      match
        List.filter_map
          (fun ((n : Vdg.node), _rw) ->
            match Vdg.loc_of graph n.Vdg.nid with
            | Some l when l.Srcloc.line = line -> Some n.Vdg.nid
            | _ -> None)
          (Vdg.indirect_memops graph)
      with
      | [] ->
        Protocol.bad_params "%S: no indirect memory operation on line %d"
          line_key line
      | nodes -> nodes)
    | None -> Protocol.bad_params "missing parameter %S (or %S)" side line_key)

(* A baseline-tier session has no VDG, so only line-keyed queries can be
   answered; node ids name a solution component that does not exist. *)
let line_for (e : Session.entry) params side =
  let line_key = side ^ "_line" in
  (match Protocol.opt_int_param params side with
  | Some _ ->
    raise
      (Session.Tier_unavailable
         (Printf.sprintf
            "session %s holds a %s-tier solution: VDG node ids are \
             unavailable, query by %S instead"
            e.Session.ses_id
            (Engine.string_of_tier (Session.tier e))
            line_key))
  | None -> ());
  match Protocol.opt_int_param params line_key with
  | Some line -> line
  | None -> Protocol.bad_params "missing parameter %S" line_key

(* Tier selection shared by may_alias and points_to (v6 query_opts): the
   session's CI solution, or CS when asked for, running the CS solver on
   first use. *)
let view_for (a : Engine.analysis) (opts : Protocol.query_opts) =
  match opts.Protocol.qo_tier with
  | Some "cs" -> (
    match Engine.cs_tiered ?budget:(budget_of_opts opts) a with
    | Ok { Engine.co_cs = Some cs; _ } -> (Query.cs_view a.Engine.ci cs, [])
    | Ok { Engine.co_degradation = d; _ } ->
      (* the budget ran out mid-CS: the complete CI solution answers *)
      (Query.ci_view a.Engine.ci, Option.to_list d)
    | Error err -> raise (Session.Engine_error err))
  | _ -> (Query.ci_view a.Engine.ci, [])  (* ci, or a retired spelling of it *)

let do_may_alias t (e : Session.entry) params =
  let opts = query_opts_of params in
  match Session.analysis e with
  | None ->
    (* degraded session: answer at its baseline tier, by source line *)
    let td = e.Session.ses_tiered in
    let la = line_for e params "a" and lb = line_for e params "b" in
    let check side line =
      match Engine.line_locations td line with
      | Some [] ->
        Protocol.bad_params "%S: no indirect memory operation on line %d"
          (side ^ "_line") line
      | _ -> ()
    in
    check "a" la;
    check "b" lb;
    let verdict = Option.value ~default:false (Engine.line_may_alias td la lb) in
    let tier = Engine.string_of_tier td.Engine.td_tier in
    check_opts_floor opts tier;
    note_tier_answer t tier;
    Ejson.Assoc
      [
        ("may_alias", Ejson.Bool verdict);
        ("a_line", Ejson.Int la);
        ("b_line", Ejson.Int lb);
        ("tier", Ejson.String tier);
      ]
  | Some a ->
    let a_nodes = nodes_for a.Engine.graph params "a" in
    let b_nodes = nodes_for a.Engine.graph params "b" in
    let view, degradations = view_for a opts in
    check_opts_floor opts view.Query.nv_tier;
    note_degraded t (List.length degradations);
    let verdict =
      List.exists
        (fun x -> List.exists (fun y -> Query.alias view x y) b_nodes)
        a_nodes
    in
    note_tier_answer t view.Query.nv_tier;
    Ejson.Assoc
      ([
         ("may_alias", Ejson.Bool verdict);
         ("a_nodes", Ejson.List (List.map (fun n -> Ejson.Int n) a_nodes));
         ("b_nodes", Ejson.List (List.map (fun n -> Ejson.Int n) b_nodes));
         ("tier", Ejson.String view.Query.nv_tier);
       ]
      @
      match degradations with
      | [] -> []
      | ds ->
        [ ("degraded", Ejson.Bool true); ("degradations", degradations_json ds) ])

let do_points_to t (e : Session.entry) params =
  let opts = query_opts_of params in
  let node = Protocol.int_param params "node" in
  let view, degradations = view_for (Session.require_analysis e) opts in
  check_opts_floor opts view.Query.nv_tier;
  note_degraded t (List.length degradations);
  if node < 0 || node >= Vdg.n_nodes view.Query.nv_graph then
    Protocol.bad_params "\"node\": no VDG node %d" node;
  let pairs = view.Query.nv_pairs node in
  note_tier_answer t view.Query.nv_tier;
  Ejson.Assoc
    ([
       ("node", Ejson.Int node);
       ("tier", Ejson.String view.Query.nv_tier);
       ("locations", paths_json (Query.locations view node));
       ( "pairs",
         Ejson.List
           (List.map (fun p -> Ejson.String (Ptpair.to_string p)) pairs) );
     ]
    @
    match degradations with
    | [] -> []
    | ds ->
      [ ("degraded", Ejson.Bool true); ("degradations", degradations_json ds) ])

(* lint/purity/conflicts/modref answers are deterministic functions of
   the session's solution and the request params, and — unlike the
   per-node queries — cost milliseconds on big units, so repeats are
   served from the per-session memo (which Session drops whenever the
   solution changes).  The memoized value carries the answer's
   degradation count so a hit replays the [note_degraded] bump the
   compute did.  Runs under the session lock, like every do_*. *)
let memoized e meth params compute =
  let key = meth ^ "\x00" ^ Ejson.to_compact_string params in
  match Session.memo_find e key with
  | Some hit -> hit
  | None ->
    let v = compute () in
    Session.memo_add e key v;
    v

let do_modref (e : Session.entry) params =
  fst
  @@ memoized e "modref" params
  @@ fun () ->
  (* mod/ref sets are a CI-solution product: the opts record is accepted
     for surface uniformity, the floor is checked against ci, and a tier
     above ci is unanswerable here *)
  let opts = query_opts_of params in
  let modref = Session.require_modref e in
  check_opts_floor opts (Engine.string_of_tier Engine.Ci);
  let fn = check_function e params in
  let ops =
    List.filter
      (fun (o : Modref.op) ->
        match fn with None -> true | Some f -> o.Modref.op_fun = f)
      (Modref.ops modref)
  in
  ( Ejson.Assoc
      ((match fn with
       | None -> []
       | Some f ->
         [
           ("function", Ejson.String f);
           ("mod", paths_json (Modref.mod_set modref f));
           ("ref", paths_json (Modref.ref_set modref f));
         ])
      @ [ ("ops", Ejson.List (List.map op_json ops)) ]),
    0 )

let do_purity (e : Session.entry) params =
  fst
  @@ memoized e "purity" params
  @@ fun () ->
  let a = Session.require_analysis e in
  ( Ejson.Assoc
      [
        ( "functions",
          Ejson.Assoc
            (List.map
               (fun f ->
                 ( f,
                   Ejson.String
                     (match
                        Query.classify_purity a.Engine.graph a.Engine.ci f
                      with
                     | Query.Pure -> "pure"
                     | Query.Impure_writes -> "impure-writes"
                     | Query.Impure_calls ext -> "impure-calls:" ^ ext) ))
               (defined_functions e)) );
      ],
    0 )

let conflict_json (c : Query.conflict) =
  let side (o : Modref.op) =
    Ejson.Assoc
      [
        ("node", Ejson.Int o.Modref.op_node);
        ("rw", Ejson.String (Checker.string_of_rw o.Modref.op_rw));
        ("loc", Ejson.String (Checker.where o.Modref.op_loc));
      ]
  in
  Ejson.Assoc
    [
      ("a", side c.Query.cf_a);
      ("b", side c.Query.cf_b);
      ( "kind",
        Ejson.String
          (match c.Query.cf_kind with
          | `Write_write -> "write-write"
          | `Read_write -> "read-write") );
      ("common", paths_json c.Query.cf_common);
    ]

let do_conflicts (e : Session.entry) params =
  fst
  @@ memoized e "conflicts" params
  @@ fun () ->
  let modref = Session.require_modref e in
  let fns =
    match check_function e params with
    | Some f -> [ f ]
    | None -> defined_functions e
  in
  let by_fn = List.map (fun f -> (f, Query.conflicts_in modref f)) fns in
  let total = List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 by_fn in
  let per_function =
    List.filter_map
      (fun (f, cs) ->
        match cs with
        | [] -> None
        | cs ->
          Some
            (Ejson.Assoc
               [
                 ("function", Ejson.String f);
                 ("conflicts", Ejson.List (List.map conflict_json cs));
               ]))
      by_fn
  in
  ( Ejson.Assoc
      [ ("count", Ejson.Int total); ("functions", Ejson.List per_function) ],
    0 )

let do_lint t (e : Session.entry) params =
  let checkers = Protocol.string_list_param params "checkers" in
  (match Registry.select checkers with
  | Ok _ -> ()
  | Error msg -> raise (Protocol.Bad_params msg));
  let compare_cs = Protocol.bool_param ~default:false params "cs" in
  let budget = budget_of_params params in
  let run () =
    let report =
      Lint.run ~checkers ~compare_cs ?budget (Session.require_analysis e)
    in
    (Lint.to_json report, List.length report.Lint.rp_degradations)
  in
  let json, degraded =
    match budget with
    (* a deadline-bounded lint depends on wall time, not just inputs:
       always computed fresh *)
    | Some _ -> run ()
    | None -> memoized e "lint" params run
  in
  note_degraded t degraded;
  json

let do_stats t _params =
  let methods, degraded, tier_answers =
    Mutex.lock t.h_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.h_lock)
      (fun () ->
        ( Hashtbl.fold
            (fun name ms acc ->
              (name, ms.ms_errors, ms.ms_count, stat_window ms) :: acc)
            t.h_methods [],
          t.h_degraded,
          Hashtbl.fold
            (fun tier n acc -> (tier, Ejson.Int n) :: acc)
            t.h_tier_answers [] ))
  in
  let methods =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b) methods
  in
  let tier_answers =
    List.sort (fun (a, _) (b, _) -> String.compare a b) tier_answers
  in
  Ejson.Assoc
    ([
       ("uptime_seconds", Ejson.Float (Unix.gettimeofday () -. t.h_started));
       ("protocol_version", Ejson.Int Protocol.protocol_version);
       ("worker_domains", Ejson.Int t.h_pool_width);
       ("requests", Ejson.Int t.h_requests);
       ("errors", Ejson.Int t.h_errors);
       ("degradations", Ejson.Int degraded);
       ("answers_by_tier", Ejson.Assoc tier_answers);
       ("sessions", Ejson.Assoc (Session.stats_json t.h_sessions));
       (* hash-consed points-to set universe of the serving domain:
          interning footprint plus meet-memo effectiveness *)
       ( "ptset",
         Ejson.Assoc
           (let s = Ptset.stats () in
            [
              ("interned_sets", Ejson.Int s.Ptset.st_sets);
              ("live_bytes", Ejson.Int s.Ptset.st_live_bytes);
              ("peak_bytes", Ejson.Int s.Ptset.st_peak_bytes);
              ("meet_cache_hits", Ejson.Int s.Ptset.st_cache_hits);
              ("meet_cache_misses", Ejson.Int s.Ptset.st_cache_misses);
              ("meet_cache_rotations", Ejson.Int s.Ptset.st_cache_rotations);
            ]) );
       ( "methods",
         Ejson.Assoc
           (List.map
              (fun (name, errors, count, samples) ->
                ( name,
                  (* count is all-time; the percentiles cover the recency
                     window [record] retains *)
                  Ejson.Assoc
                    (("count", Ejson.Int count)
                     :: List.filter
                          (fun (k, _) -> k <> "count")
                          (Telemetry.latency_json
                             (Telemetry.summarize_array samples))
                    @ [ ("errors", Ejson.Int errors) ]) ))
              methods) );
     ]
    @
    match Session.engine_cache_stats_json t.h_sessions with
    | Some stats -> [ ("engine_cache", Ejson.Assoc stats) ]
    | None -> [])

(* ---- dispatch ------------------------------------------------------------------- *)

exception Unknown_method of string

let method_names =
  [
    "ping"; "open"; "close"; "update"; "may_alias"; "points_to"; "modref";
    "purity"; "conflicts"; "lint"; "stats"; "shutdown";
  ]

(* Methods that read a solved session run under the session lock.  The
   non-blocking variant (the reactor's inline path) raises
   {!Session.Busy} instead of parking the event loop behind a lock a
   worker job is holding. *)
let with_session ~blocking t conn params f =
  let e = resolve t conn params in
  if blocking then Session.with_entry e (fun () -> f e)
  else Session.try_with_entry e (fun () -> f e)

let dispatch ~blocking t conn meth params =
  let with_session = with_session ~blocking t conn params in
  match meth with
  | "ping" -> do_ping t params
  | "open" -> do_open t conn params
  | "close" -> do_close t conn params
  | "update" -> do_update t conn params
  | "may_alias" -> with_session (fun e -> do_may_alias t e params)
  | "points_to" -> with_session (fun e -> do_points_to t e params)
  | "modref" -> with_session (fun e -> do_modref e params)
  | "purity" -> with_session (fun e -> do_purity e params)
  | "conflicts" -> with_session (fun e -> do_conflicts e params)
  | "lint" -> with_session (fun e -> do_lint t e params)
  | "stats" -> do_stats t params
  | "shutdown" ->
    (* stop burning cycles on solves nobody will wait for *)
    let cancelled = Session.cancel_all_inflight t.h_sessions in
    Ejson.Assoc
      [
        ("stopping", Ejson.Bool true);
        ("cancelled_inflight", Ejson.Int cancelled);
      ]
  | m -> raise (Unknown_method m)

let record t meth seconds ~ok =
  Mutex.lock t.h_lock;
  t.h_requests <- t.h_requests + 1;
  if not ok then t.h_errors <- t.h_errors + 1;
  let ms =
    match Hashtbl.find_opt t.h_methods meth with
    | Some ms -> ms
    | None ->
      let ms =
        { ms_samples = Array.make sample_window 0.; ms_count = 0; ms_errors = 0 }
      in
      Hashtbl.add t.h_methods meth ms;
      ms
  in
  ms.ms_samples.(ms.ms_count mod sample_window) <- seconds;
  ms.ms_count <- ms.ms_count + 1;
  if not ok then ms.ms_errors <- ms.ms_errors + 1;
  Mutex.unlock t.h_lock

(* Map an engine error to the wire taxonomy, with the structured payload
   as the error's "data" member. *)
let engine_error_reply (err : Engine.error) =
  let data = Engine.error_json err in
  match err with
  | Engine.Frontend_error _ ->
    (Protocol.Frontend_error, Engine.error_message err, Some data)
  | Engine.Budget_exhausted _ ->
    (Protocol.Budget_exhausted, Engine.error_message err, Some data)
  | Engine.Cancelled -> (Protocol.Cancelled, Engine.error_message err, Some data)

(* Evaluate one request to its un-serialized response object, plus
   whether it was a granted shutdown.  The batch path assembles these
   into one array reply; the single path serializes directly. *)
let handle_json ?(blocking = true) t conn (rq : Protocol.request) =
  let t0 = Unix.gettimeofday () in
  let reply =
    match
      Protocol.check_version rq.Protocol.rq_params;
      dispatch ~blocking t conn rq.Protocol.rq_method rq.Protocol.rq_params
    with
    | result -> Ok result
    (* A Busy punt is not an outcome: re-raise before the catch-all and
       record nothing — the blocking retry on a worker records it. *)
    | exception Session.Busy -> raise Session.Busy
    | exception Protocol.Version_mismatch v ->
      Error
        ( Protocol.Unsupported_version,
          Printf.sprintf "protocol version %d not supported (this server speaks %d)"
            v Protocol.protocol_version,
          Some (Protocol.version_error_data ~requested:v) )
    | exception Protocol.Bad_params msg ->
      Error (Protocol.Invalid_params, msg, None)
    | exception Session_error msg ->
      Error (Protocol.Session_not_found, msg, None)
    | exception Session.Tier_unavailable msg ->
      Error (Protocol.Tier_unavailable, msg, None)
    | exception Session.Engine_error err -> Error (engine_error_reply err)
    | exception Budget.Exhausted Budget.Cancelled ->
      Error (engine_error_reply Engine.Cancelled)
    | exception Unknown_method m ->
      Error
        (Protocol.Method_not_found, Printf.sprintf "unknown method %S" m, None)
    | exception Srcloc.Error (loc, msg) ->
      Error (Protocol.Frontend_error, Srcloc.to_string loc ^ ": " ^ msg, None)
    | exception Sys_error msg -> Error (Protocol.Frontend_error, msg, None)
    | exception Unix.Unix_error (err, fn, arg) ->
      Error
        ( Protocol.Frontend_error,
          Printf.sprintf "%s: %s: %s" fn arg (Unix.error_message err),
          None )
    | exception e -> Error (Protocol.Internal_error, Printexc.to_string e, None)
  in
  record t rq.Protocol.rq_method
    (Unix.gettimeofday () -. t0)
    ~ok:(Result.is_ok reply);
  let id = rq.Protocol.rq_id in
  match reply with
  | Ok result ->
    ( Protocol.ok_response_json ~id result,
      rq.Protocol.rq_method = "shutdown" )
  | Error (code, msg, data) ->
    (Protocol.error_response_json ?data ~id code msg, false)

let handle ?blocking t conn (rq : Protocol.request) =
  let json, shutdown = handle_json ?blocking t conn rq in
  let line = Ejson.to_compact_string json in
  if shutdown then Reply_shutdown line else Reply line

(* v6 batching: evaluate the sub-requests in order on this connection and
   reply with one array line.  "shutdown" is refused inside a batch — its
   reply must be the connection's last line, which an array of peers
   cannot guarantee. *)
let handle_item ?blocking t conn item =
  match item with
  | Error (code, msg) ->
    record t "<invalid>" 0. ~ok:false;
    Protocol.error_response_json ~id:Ejson.Null code msg
  | Ok rq when rq.Protocol.rq_method = "shutdown" ->
    record t "shutdown" 0. ~ok:false;
    Protocol.error_response_json ~id:rq.Protocol.rq_id Protocol.Invalid_request
      "\"shutdown\" is not allowed inside a batch"
  | Ok rq ->
    let json, _shutdown = handle_json ?blocking t conn rq in
    json

let handle_batch t conn items =
  Reply (Protocol.batch_response (List.map (handle_item t conn) items))

(* The transport parses each line once ([Protocol.envelope_of_line]) so
   it can classify before dispatching; both entry points below accept
   the parse result directly. *)
let handle_envelope t conn = function
  | Ok (Protocol.Single rq) -> handle t conn rq
  | Ok (Protocol.Batch items) -> handle_batch t conn items
  | Error (code, msg) ->
    record t "<invalid>" 0. ~ok:false;
    Reply (Protocol.error_response ~id:Ejson.Null code msg)

let handle_line t conn line = handle_envelope t conn (Protocol.envelope_of_line line)

(* ---- reactor scheduling ---------------------------------------------------------- *)

(* Whether a request can do solver-scale work (and so belongs on a
   worker domain rather than inline on the reactor): the solving methods
   themselves, any request that may implicitly open a file, and any
   query whose opts can run the CS solver or carry a deadline or floor.
   A tier of ci (or its retired spellings) reads the live solution, so
   it stays light. *)
let heavy_request (rq : Protocol.request) =
  match rq.Protocol.rq_method with
  | "open" | "lint" | "update" -> true
  | "may_alias" | "points_to" | "modref" | "purity" | "conflicts" -> (
    Ejson.member "file" rq.Protocol.rq_params <> None
    ||
    match
      (try Protocol.query_opts_of_params rq.Protocol.rq_params
       with Protocol.Bad_params _ -> Protocol.no_query_opts)
    with
    | { Protocol.qo_tier = Some "cs"; _ } -> true
    | { Protocol.qo_deadline_ms = Some _; _ }
    | { Protocol.qo_min_tier = Some _; _ } ->
      true
    | _ -> false)
  | _ -> false

let heavy_envelope = function
  | Ok (Protocol.Single rq) -> heavy_request rq
  | Ok (Protocol.Batch items) ->
    List.exists (function Ok rq -> heavy_request rq | Error _ -> false) items
  | Error _ -> false

let heavy_line line = heavy_envelope (Protocol.envelope_of_line line)
