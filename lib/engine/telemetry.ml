(* Per-run instrumentation: wall-clock time per pipeline phase plus the
   solver cost counters the paper's Section 4.2 is framed around
   (transfer-function applications = flow_in, meet operations = flow_out,
   worklist traffic, and result sizes).  A telemetry record is carried by
   every Engine.analysis and serializes to JSON for --metrics. *)

type cache_status = Cold | Disk_hit

let string_of_cache_status = function
  | Cold -> "miss"
  | Disk_hit -> "disk-hit"

type solver_counters = {
  sc_flow_in : int;          (* transfer-function applications *)
  sc_flow_out : int;         (* meet operations *)
  sc_worklist_pushes : int;
  sc_worklist_pops : int;
  sc_worklist_skips : int;   (* popped items dropped (stale/duplicate) *)
  sc_pairs : int;            (* total points-to pairs in the solution *)
  (* hash-consed set layer (Ptset), attributed to this solve *)
  sc_meet_cache_hits : int;
  sc_meet_cache_misses : int;
  sc_interned_sets : int;
  sc_peak_table_bytes : int;
}

(* One checker execution inside `analyze lint`: wall time and how many
   diagnostics it produced.  Runs against the CS solution are recorded
   under a "cs:" prefixed checker name. *)
type checker_stat = {
  ck_checker : string;
  ck_seconds : float;
  ck_diagnostics : int;
}

(* One step down the precision ladder: which tier was abandoned, which
   tier answered instead, and which budget axis tripped. *)
type degradation_event = {
  dg_from : string;
  dg_to : string;
  dg_reason : string;
}

type t = {
  t_file : string;
  t_source_bytes : int;
  mutable t_phases : (string * float) list;  (* in completion order *)
  mutable t_cache : cache_status;
  mutable t_functions : int;
  mutable t_vdg_nodes : int;
  mutable t_alias_outputs : int;
  mutable t_ci : solver_counters option;
  mutable t_cs : solver_counters option;
  mutable t_dyck : solver_counters option;   (* set on the dyck tier *)
  mutable t_incr : Incr_engine.stats option; (* set by an incremental Engine.analyze *)
  mutable t_checkers : checker_stat list;    (* in execution order *)
  mutable t_tier : string option;            (* ladder tier actually achieved *)
  mutable t_degradations : degradation_event list;  (* in occurrence order *)
  mutable t_budget : (string * Ejson.t) list;  (* budget consumption *)
}

(* Phases recorded by Engine.analyze, in pipeline order.  "cs" only
   appears once the lazily-forced context-sensitive solve has actually
   run; "dyck" replaces "ci"/"cs" on the Dyck tier, and "incr" replaces
   "ci" on an incremental re-solve. *)
let phase_names = [ "load"; "frontend"; "vdg"; "dyck"; "ci"; "incr"; "cs" ]

let create ~file ~source_bytes =
  {
    t_file = file;
    t_source_bytes = source_bytes;
    t_phases = [];
    t_cache = Cold;
    t_functions = 0;
    t_vdg_nodes = 0;
    t_alias_outputs = 0;
    t_ci = None;
    t_cs = None;
    t_dyck = None;
    t_incr = None;
    t_checkers = [];
    t_tier = None;
    t_degradations = [];
    t_budget = [];
  }

let record_degradation t ~from_tier ~to_tier ~reason =
  t.t_degradations <-
    t.t_degradations @ [ { dg_from = from_tier; dg_to = to_tier; dg_reason = reason } ]

let degradation_json d =
  Ejson.Assoc
    [
      ("from", Ejson.String d.dg_from);
      ("to", Ejson.String d.dg_to);
      ("reason", Ejson.String d.dg_reason);
    ]

let record_phase t name seconds =
  t.t_phases <- t.t_phases @ [ (name, seconds) ]

let record_checker t name ~seconds ~diagnostics =
  t.t_checkers <-
    t.t_checkers
    @ [ { ck_checker = name; ck_seconds = seconds; ck_diagnostics = diagnostics } ]

let time t name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  record_phase t name (Unix.gettimeofday () -. t0);
  result

let phase_seconds t name = List.assoc_opt name t.t_phases

let total_seconds t = List.fold_left (fun acc (_, s) -> acc +. s) 0. t.t_phases

(* ---- latency distributions ----------------------------------------------------- *)

(* Shared between the batch bench (per-phase tail latency across the
   suite) and the query server (per-method tail latency across requests),
   so the two latency tables read the same way. *)

type latency = {
  l_count : int;
  l_total : float;
  l_p50 : float;
  l_p95 : float;
  l_max : float;
}

(* Linear interpolation between closest ranks; [sorted] must be ascending. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

(* In-place heapsort specialized to flat float arrays: [Array.sort
   Float.compare] boxes both floats on every comparison, which makes the
   per-"stats" window sorts allocation-bound.  Direct [<] on [float
   array] elements stays unboxed. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift_down root last =
    let child = (2 * root) + 1 in
    if child <= last then begin
      let child =
        if child < last && a.(child) < a.(child + 1) then child + 1 else child
      in
      if a.(root) < a.(child) then begin
        swap root child;
        sift_down child last
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i (n - 1)
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift_down 0 (last - 1)
  done

let summarize_sorted arr =
  let n = Array.length arr in
  {
    l_count = n;
    l_total = Array.fold_left ( +. ) 0. arr;
    l_p50 = percentile arr 0.5;
    l_p95 = percentile arr 0.95;
    l_max = (if n = 0 then 0. else arr.(n - 1));
  }

let summarize_array arr =
  sort_floats arr;
  summarize_sorted arr

let summarize samples = summarize_array (Array.of_list samples)

let latency_json l =
  [
    ("count", Ejson.Int l.l_count);
    ("total_seconds", Ejson.Float l.l_total);
    ("p50_seconds", Ejson.Float l.l_p50);
    ("p95_seconds", Ejson.Float l.l_p95);
    ("max_seconds", Ejson.Float l.l_max);
  ]

(* A detached copy, so that cache hits can report their own status
   without mutating the record of the run that populated the cache. *)
let copy t =
  {
    t_file = t.t_file;
    t_source_bytes = t.t_source_bytes;
    t_phases = t.t_phases;
    t_cache = t.t_cache;
    t_functions = t.t_functions;
    t_vdg_nodes = t.t_vdg_nodes;
    t_alias_outputs = t.t_alias_outputs;
    t_ci = t.t_ci;
    t_cs = t.t_cs;
    t_dyck = t.t_dyck;
    t_incr = t.t_incr;
    t_checkers = t.t_checkers;
    t_tier = t.t_tier;
    t_degradations = t.t_degradations;
    t_budget = t.t_budget;
  }

(* ---- JSON --------------------------------------------------------------------- *)

let counters_json prefix (c : solver_counters) =
  [
    (prefix ^ "_flow_in", Ejson.Int c.sc_flow_in);
    (prefix ^ "_flow_out", Ejson.Int c.sc_flow_out);
    (prefix ^ "_worklist_pushes", Ejson.Int c.sc_worklist_pushes);
    (prefix ^ "_worklist_pops", Ejson.Int c.sc_worklist_pops);
    (prefix ^ "_worklist_skips", Ejson.Int c.sc_worklist_skips);
    (prefix ^ "_pairs", Ejson.Int c.sc_pairs);
    (prefix ^ "_meet_cache_hits", Ejson.Int c.sc_meet_cache_hits);
    (prefix ^ "_meet_cache_misses", Ejson.Int c.sc_meet_cache_misses);
    (prefix ^ "_interned_sets", Ejson.Int c.sc_interned_sets);
    (prefix ^ "_peak_table_bytes", Ejson.Int c.sc_peak_table_bytes);
  ]

let incr_json (s : Incr_engine.stats) =
  [
    ("incr_procs_total", Ejson.Int s.Incr_engine.st_procs_total);
    ("incr_dirty_initial", Ejson.Int s.Incr_engine.st_dirty_initial);
    ("incr_resolved", Ejson.Int s.Incr_engine.st_resolved);
    ("incr_reused", Ejson.Int s.Incr_engine.st_reused);
    ("incr_summary_hits", Ejson.Int s.Incr_engine.st_summary_hits);
    ("incr_rounds", Ejson.Int s.Incr_engine.st_rounds);
    ("incr_full_fallback", Ejson.Bool s.Incr_engine.st_full_fallback);
  ]

let to_json t =
  let phases =
    Ejson.Assoc (List.map (fun (name, s) -> (name, Ejson.Float s)) t.t_phases)
  in
  let counters =
    [
      ("functions", Ejson.Int t.t_functions);
      ("vdg_nodes", Ejson.Int t.t_vdg_nodes);
      ("alias_outputs", Ejson.Int t.t_alias_outputs);
    ]
    @ (match t.t_ci with Some c -> counters_json "ci" c | None -> [])
    @ (match t.t_cs with Some c -> counters_json "cs" c | None -> [])
    @ (match t.t_dyck with Some c -> counters_json "dyck" c | None -> [])
    @ (match t.t_incr with Some i -> incr_json i | None -> [])
  in
  let checkers =
    match t.t_checkers with
    | [] -> []
    | stats ->
      [
        ( "checkers",
          Ejson.Assoc
            (List.map
               (fun s ->
                 ( s.ck_checker,
                   Ejson.Assoc
                     [
                       ("seconds", Ejson.Float s.ck_seconds);
                       ("diagnostics", Ejson.Int s.ck_diagnostics);
                     ] ))
               stats) );
      ]
  in
  let tier =
    match t.t_tier with
    | Some tier -> [ ("tier", Ejson.String tier) ]
    | None -> []
  in
  let degradations =
    match t.t_degradations with
    | [] -> []
    | ds -> [ ("degradations", Ejson.List (List.map degradation_json ds)) ]
  in
  let budget =
    match t.t_budget with
    | [] -> []
    | fields -> [ ("budget", Ejson.Assoc fields) ]
  in
  Ejson.Assoc
    ([
       ("file", Ejson.String t.t_file);
       ("source_bytes", Ejson.Int t.t_source_bytes);
       ("cache", Ejson.String (string_of_cache_status t.t_cache));
       ("total_seconds", Ejson.Float (total_seconds t));
       ("phases", phases);
       ("counters", Ejson.Assoc counters);
     ]
    @ tier @ degradations @ budget @ checkers)

(* A suite-level report: one entry per run plus aggregate totals, the
   shape `alias-analyze tables --metrics FILE` writes. *)
let suite_to_json ?(cache_stats = []) ts =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  let sumf f = List.fold_left (fun acc t -> acc +. f t) 0. ts in
  let count_cache st =
    List.length (List.filter (fun t -> t.t_cache = st) ts)
  in
  let opt_sum proj field =
    sum (fun t -> match proj t with Some c -> field c | None -> 0)
  in
  let totals =
    Ejson.Assoc
      ([
         ("runs", Ejson.Int (List.length ts));
         ("total_seconds", Ejson.Float (sumf total_seconds));
         ("cache_misses", Ejson.Int (count_cache Cold));
         ("cache_disk_hits", Ejson.Int (count_cache Disk_hit));
         ("vdg_nodes", Ejson.Int (sum (fun t -> t.t_vdg_nodes)));
         ("ci_flow_in", Ejson.Int (opt_sum (fun t -> t.t_ci) (fun c -> c.sc_flow_in)));
         ("ci_flow_out", Ejson.Int (opt_sum (fun t -> t.t_ci) (fun c -> c.sc_flow_out)));
         ("ci_pairs", Ejson.Int (opt_sum (fun t -> t.t_ci) (fun c -> c.sc_pairs)));
         ("cs_flow_in", Ejson.Int (opt_sum (fun t -> t.t_cs) (fun c -> c.sc_flow_in)));
         ("cs_flow_out", Ejson.Int (opt_sum (fun t -> t.t_cs) (fun c -> c.sc_flow_out)));
         ("cs_pairs", Ejson.Int (opt_sum (fun t -> t.t_cs) (fun c -> c.sc_pairs)));
         ("degradations", Ejson.Int (sum (fun t -> List.length t.t_degradations)));
       ]
      @ cache_stats)
  in
  Ejson.Assoc
    [
      ("schema", Ejson.String "alias-engine-metrics/5");
      ("benchmarks", Ejson.List (List.map to_json ts));
      ("totals", totals);
    ]
