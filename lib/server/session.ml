(* The daemon's working set: solved analysis results, alive across
   requests, keyed by Engine.cache_key (a digest of the source text and
   the configuration fingerprint).

   Identity is content, not path: re-opening an unchanged file re-digests
   it and lands on the live session (a "session hit" — no re-solve);
   re-opening a file whose content changed produces a new key, solves
   fresh, and drops the stale session for that path.  The working set is
   bounded by an entry count and an approximate byte budget, evicted LRU,
   and it is the daemon's only in-memory copy of a solution: once a
   session is closed, replaced or evicted, its solution is garbage.  The
   engine's disk cache (when configured) still holds it, so re-opening a
   dropped session is a disk hit; without a cache it is a cold solve.

   Governance: an open may carry a deadline, in which case the solve runs
   under a Budget and may come back at a degraded tier (the entry then
   holds a baseline solution instead of a full Engine.analysis).  A
   session hit is only a hit when the live entry's tier satisfies the
   request's floor; a too-coarse entry is dropped and re-solved — the
   upgrade path.  Budgets of in-flight solves are registered by path so
   close/shutdown can cancel them mid-solve. *)

type entry = {
  ses_id : string;  (* the Engine.cache_key digest, exposed to clients *)
  ses_path : string;
  mutable ses_tiered : Engine.tiered;
      (* the solution, at whatever tier survived; a dyck-tier entry is
         upgraded in place (under ses_lock) when a query needs the
         exhaustive solution *)
  mutable ses_modref : Modref.t Lazy.t option;
      (* CI mod/ref sets, built on first query; None below the Ci tier,
         filled in by the upgrade *)
  mutable ses_dyck : Dyck_solver.t option;
      (* per-session dyck solution for tier="dyck" queries on a node-tier
         session, solved on first use over the session's own VDG or
         handed on by an upgrade; dyck-tier sessions answer from td_dyck
         instead *)
  ses_bytes : int;  (* approximate retained size *)
  ses_lock : Mutex.t;  (* serializes queries on this session *)
  mutable ses_stamp : int;  (* LRU clock value of the last touch *)
  mutable ses_queries : int;
  mutable ses_digest : string option;
      (* memoized canonical solution digest; None below the Ci tier *)
  ses_memo : (string, Ejson.t * int) Hashtbl.t;
      (* per-session answer memo for deterministic whole-file methods
         (lint/purity/conflicts/modref): request key -> (result JSON,
         degradation count).  Entries are only valid for the current
         solution, so the table is reset on an upgrade; update/open
         build a fresh entry, which drops it wholesale. *)
}

(* Keep the answer memo bounded for long-lived sessions queried with
   many distinct params (per-function conflicts, checker subsets). *)
let memo_cap = 256

(* Both ends run under [ses_lock] — the handler only reaches a session
   through {!with_entry}/{!try_with_entry}. *)
let memo_find e key = Hashtbl.find_opt e.ses_memo key

let memo_add e key v =
  if Hashtbl.length e.ses_memo >= memo_cap then Hashtbl.reset e.ses_memo;
  Hashtbl.replace e.ses_memo key v

exception Engine_error of Engine.error
exception Tier_unavailable of string

let tier e = e.ses_tiered.Engine.td_tier

let analysis e = e.ses_tiered.Engine.td_analysis

let dyck e = e.ses_tiered.Engine.td_dyck

type stats = {
  mutable st_solved : int;  (* opens that went through the engine *)
  mutable st_session_hits : int;  (* opens answered by a live session *)
  mutable st_invalidated : int;  (* sessions dropped because content changed *)
  mutable st_evicted : int;  (* sessions dropped by the LRU budget *)
  mutable st_closed : int;
  mutable st_degraded : int;  (* ladder descents across all solves *)
  mutable st_upgraded : int;  (* re-solves because a hit's tier was too low *)
  mutable st_cancelled : int;  (* in-flight budgets cancelled *)
  mutable st_updated : int;  (* sessions re-analyzed in place (protocol v5) *)
}

(* What must be unchanged for an on-disk file to be assumed identical
   without re-reading it: same inode, byte size and (sub-second)
   modification time.  The same assumption every incremental build tool
   makes; a same-size in-place rewrite within the filesystem's timestamp
   resolution can defeat it, which is why the fingerprint only ever
   short-circuits straight session hits. *)
type stat_fp = { fp_dev : int; fp_ino : int; fp_size : int; fp_mtime : float }

let stat_fp (st : Unix.stats) =
  {
    fp_dev = st.Unix.st_dev;
    fp_ino = st.Unix.st_ino;
    fp_size = st.Unix.st_size;
    fp_mtime = st.Unix.st_mtime;
  }

let stat_cache_cap = 256

type t = {
  tbl : (string, entry) Hashtbl.t;  (* by session id *)
  by_path : (string, string) Hashtbl.t;  (* path -> current session id *)
  lock : Mutex.t;
  mutable clock : int;
  mutable live_bytes : int;
  mutable inflight : (string * Budget.t) list;  (* path, budget of a solve *)
  max_entries : int;
  max_bytes : int;
  config : Engine.config;
  cache : Engine_cache.t option;
  disk_budget : int option;  (* Engine_cache.prune target, if any *)
  default_deadline_s : float option;  (* applied when an open names none *)
  stat_cache : (string, stat_fp * string) Hashtbl.t;
      (* path -> (stat fingerprint, content key) of the last open: lets a
         re-open of an untouched file skip the re-read + re-digest *)
  st : stats;
}

let create ?(max_entries = 16) ?(max_bytes = 1 lsl 30) ?config ?cache
    ?disk_budget ?default_deadline_s () =
  {
    tbl = Hashtbl.create 16;
    by_path = Hashtbl.create 16;
    lock = Mutex.create ();
    clock = 0;
    live_bytes = 0;
    inflight = [];
    max_entries = max 1 max_entries;
    max_bytes = max 0 max_bytes;
    config = Option.value ~default:Engine.default_config config;
    cache;
    disk_budget;
    default_deadline_s;
    stat_cache = Hashtbl.create 16;
    st =
      {
        st_solved = 0;
        st_session_hits = 0;
        st_invalidated = 0;
        st_evicted = 0;
        st_closed = 0;
        st_degraded = 0;
        st_upgraded = 0;
        st_cancelled = 0;
        st_updated = 0;
      };
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Ensure the entry holds a full >= Ci solution.  A dyck-tier entry is
   upgraded in place by running the exhaustive pipeline over its own
   input, under the session lock the caller already holds (queries on one
   session serialize), so racing queries see either tier, never a torn
   record.  The input is the same text, so node ids carry over.  Baseline
   tiers are left to a re-open with a larger budget, and raise. *)
let require_analysis t e =
  match analysis e with
  | Some a -> a
  | None when dyck e <> None -> (
    match
      Engine.analyze ~config:t.config ?cache:t.cache Engine.default_request
        e.ses_tiered.Engine.td_input
    with
    | Ok ({ Engine.td_analysis = Some a; _ } as td) ->
      (* the dyck solution keeps serving tier="dyck" queries after
         the upgrade *)
      e.ses_dyck <- dyck e;
      e.ses_tiered <- td;
      (* answers memoized against the dyck solution are stale *)
      Hashtbl.reset e.ses_memo;
      e.ses_modref <- Some (lazy (Modref.of_ci a.Engine.ci));
      locked t (fun () -> t.st.st_upgraded <- t.st.st_upgraded + 1);
      a
    | Ok _ -> assert false (* an unbudgeted CI run always reaches ci *)
    | Error err -> raise (Engine_error err))
  | None ->
    raise
      (Tier_unavailable
         (Printf.sprintf
            "session %s holds a %s-tier solution; this query needs at \
             least the ci tier (re-open with a larger deadline or \
             min_tier)"
            e.ses_id
            (Engine.string_of_tier (tier e))))

let require_modref t e =
  match e.ses_modref with
  | Some m -> Lazy.force m
  | None -> (
    let a = require_analysis t e in
    (* the upgrade installs the lazy cell; the fallback covers a future
       tier that has an analysis but no prefilled cell *)
    match e.ses_modref with
    | Some m -> Lazy.force m
    | None -> Modref.of_ci a.Engine.ci)

(* The solution behind tier="dyck" queries.  A dyck-tier session answers
   from its own; a node-tier session solves one, once and unbudgeted,
   over its already-built VDG (under the session lock the caller holds).
   Baseline tiers have no VDG to solve over. *)
let require_dyck t e =
  match dyck e with
  | Some d -> d
  | None -> (
    match e.ses_dyck with
    | Some d -> d
    | None -> (
      match analysis e with
      | Some a ->
        let d =
          Dyck_solver.solve ~config:t.config.Engine.ci_config a.Engine.graph
        in
        e.ses_dyck <- Some d;
        d
      | None ->
        raise
          (Tier_unavailable
             (Printf.sprintf
                "session %s holds a %s-tier solution; tier=\"dyck\" needs a \
                 VDG (re-open with a larger deadline or min_tier)"
                e.ses_id
                (Engine.string_of_tier (tier e))))))

(* Callers hold t.lock. *)
let touch t e =
  t.clock <- t.clock + 1;
  e.ses_stamp <- t.clock

let drop t e =
  Hashtbl.remove t.tbl e.ses_id;
  t.live_bytes <- t.live_bytes - e.ses_bytes;
  match Hashtbl.find_opt t.by_path e.ses_path with
  | Some id when id = e.ses_id -> Hashtbl.remove t.by_path e.ses_path
  | _ -> ()

(* Evict least-recently-used sessions until within budget; [keep] (the
   entry just inserted) is never a victim, so a single oversized program
   still gets exactly one resident session. *)
let evict_over_budget t ~keep =
  let over () =
    Hashtbl.length t.tbl > t.max_entries
    || (t.max_bytes > 0 && t.live_bytes > t.max_bytes)
  in
  let next_victim () =
    Hashtbl.fold
      (fun _ e acc ->
        if e.ses_id = keep then acc
        else
          match acc with
          | Some best when best.ses_stamp <= e.ses_stamp -> acc
          | _ -> Some e)
      t.tbl None
  in
  let rec loop () =
    if over () then
      match next_victim () with
      | Some victim ->
        drop t victim;
        t.st.st_evicted <- t.st.st_evicted + 1;
        loop ()
      | None -> ()
  in
  loop ()

(* Retained size of a result, for the byte budget.  [reachable_words]
   walks the value's heap graph; the fallback is a crude multiple of the
   source size in case a future payload defeats the walk. *)
let approx_bytes (td : Engine.tiered) =
  match Obj.reachable_words (Obj.repr td) with
  | words -> words * (Sys.word_size / 8)
  | exception _ ->
    String.length td.Engine.td_input.Engine.in_source * 64

(* ---- in-flight budgets ---------------------------------------------------------- *)

let register_inflight t path budget =
  locked t (fun () -> t.inflight <- (path, budget) :: t.inflight)

let unregister_inflight t budget =
  locked t (fun () ->
      t.inflight <- List.filter (fun (_, b) -> b != budget) t.inflight)

let cancel_inflight t path =
  locked t (fun () ->
      let n =
        List.fold_left
          (fun n (p, b) ->
            if String.equal p path then begin
              Budget.cancel b;
              n + 1
            end
            else n)
          0 t.inflight
      in
      t.st.st_cancelled <- t.st.st_cancelled + n;
      n)

let cancel_all_inflight t =
  locked t (fun () ->
      let n = List.length t.inflight in
      List.iter (fun (_, b) -> Budget.cancel b) t.inflight;
      t.st.st_cancelled <- t.st.st_cancelled + n;
      n)

(* ---- opening -------------------------------------------------------------------- *)

type open_status = [ `Session_hit | `Solved of Telemetry.cache_status ]

type open_result = { or_entry : entry; or_status : open_status }

let open_path ?deadline_s ?min_tier ?(mode = `Exhaustive) t path =
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> t.default_deadline_s
  in
  (* Without a deadline nothing can degrade, so an undeadlined open
     demands (and a hit must already have) the tier the mode aims for —
     the full Ci tier for exhaustive opens (also the upgrade path for a
     previously degraded session), the dyck tier for dyck opens (which
     any node tier satisfies). *)
  let aim = match mode with `Dyck -> Engine.Dyck | `Exhaustive -> Engine.Ci in
  let floor =
    match (min_tier, deadline_s) with
    | Some m, _ -> m
    | None, Some _ -> Engine.Steensgaard
    | None, None -> aim
  in
  let satisfies e = Engine.tier_rank (tier e) >= Engine.tier_rank floor in
  (* Fast path: the file's stat fingerprint is unchanged since the last
     open of this path and the session it mapped to is still live and
     precise enough — a straight session hit without re-reading or
     re-digesting the source.  Anything less clear-cut (fingerprint
     moved, session evicted/closed, tier too coarse) falls through to
     the full re-digest below. *)
  let fp =
    match Unix.stat path with
    | st -> Some (stat_fp st)
    | exception (Unix.Unix_error _ | Sys_error _) -> None
  in
  let fast =
    match fp with
    | None -> None
    | Some fp ->
      locked t (fun () ->
          match Hashtbl.find_opt t.stat_cache path with
          | Some (fp', key) when fp' = fp -> (
            match Hashtbl.find_opt t.tbl key with
            | Some e when satisfies e ->
              t.st.st_session_hits <- t.st.st_session_hits + 1;
              touch t e;
              Some e
            | _ -> None)
          | _ -> None)
  in
  match fast with
  | Some e -> { or_entry = e; or_status = `Session_hit }
  | None ->
  let input = Engine.load_file path in
  let key = Engine.cache_key t.config input in
  (match fp with
  | Some fp ->
    locked t (fun () ->
        if Hashtbl.length t.stat_cache >= stat_cache_cap then
          Hashtbl.reset t.stat_cache;
        Hashtbl.replace t.stat_cache path (fp, key))
  | None -> ());
  let live =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e when satisfies e ->
          t.st.st_session_hits <- t.st.st_session_hits + 1;
          touch t e;
          `Hit e
        | Some e
          when dyck e <> None
               && Engine.tier_rank floor <= Engine.tier_rank Engine.Ci ->
          (* a live dyck session asked for exhaustively: upgrade it in
             place (outside this lock), keeping the session identity *)
          t.st.st_session_hits <- t.st.st_session_hits + 1;
          touch t e;
          `Upgrade e
        | Some e ->
          (* live but too coarse: drop and re-solve at a higher tier *)
          drop t e;
          t.st.st_upgraded <- t.st.st_upgraded + 1;
          `Miss
        | None -> `Miss)
  in
  match live with
  | `Hit e -> { or_entry = e; or_status = `Session_hit }
  | `Upgrade e ->
    Mutex.lock e.ses_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.ses_lock)
      (fun () -> ignore (require_analysis t e : Engine.analysis));
    { or_entry = e; or_status = `Session_hit }
  | `Miss ->
    (* Solve outside the manager lock: other sessions stay responsive
       while this one compiles.  Two racing opens of the same new file
       may both solve; the second insert below defers to the first. *)
    let limits =
      match deadline_s with
      | Some s -> Budget.limits_with_deadline s
      | None -> Budget.no_limits
    in
    let budget = Budget.start limits in
    register_inflight t path budget;
    let solved =
      Fun.protect
        ~finally:(fun () -> unregister_inflight t budget)
        (fun () ->
          Engine.analyze ~config:t.config ?cache:t.cache
            {
              Engine.want = aim;
              min_tier = floor;
              budget = Some budget;
              prev = None;
            }
            input)
    in
    let td = match solved with Ok td -> td | Error e -> raise (Engine_error e) in
    (* the canonical solution digest is echoed to clients; computed
       outside the manager lock (it walks the whole solution) and only
       for exhaustive tiers *)
    let digest =
      Option.map
        (fun (a : Engine.analysis) -> Solution_digest.ci_digest a)
        td.Engine.td_analysis
    in
    let entry =
      {
        ses_id = key;
        ses_path = path;
        ses_tiered = td;
        ses_modref =
          Option.map
            (fun (a : Engine.analysis) -> lazy (Modref.of_ci a.Engine.ci))
            td.Engine.td_analysis;
        ses_dyck = None;
        ses_bytes = approx_bytes td;
        ses_lock = Mutex.create ();
        ses_stamp = 0;
        ses_queries = 0;
        ses_digest = digest;
        ses_memo = Hashtbl.create 8;
      }
    in
    let result =
      locked t (fun () ->
          t.st.st_degraded <-
            t.st.st_degraded + List.length td.Engine.td_degradations;
          match Hashtbl.find_opt t.tbl key with
          | Some e when satisfies e ->
            t.st.st_session_hits <- t.st.st_session_hits + 1;
            touch t e;
            { or_entry = e; or_status = `Session_hit }
          | maybe_stale ->
            (match maybe_stale with
            | Some coarse ->
              drop t coarse;
              t.st.st_upgraded <- t.st.st_upgraded + 1
            | None -> ());
            (match Hashtbl.find_opt t.by_path path with
            | Some stale_id when stale_id <> key -> (
              match Hashtbl.find_opt t.tbl stale_id with
              | Some stale ->
                drop t stale;
                t.st.st_invalidated <- t.st.st_invalidated + 1
              | None -> ())
            | _ -> ());
            Hashtbl.replace t.tbl key entry;
            Hashtbl.replace t.by_path path key;
            t.live_bytes <- t.live_bytes + entry.ses_bytes;
            touch t entry;
            t.st.st_solved <- t.st.st_solved + 1;
            evict_over_budget t ~keep:key;
            {
              or_entry = entry;
              or_status =
                `Solved td.Engine.td_telemetry.Telemetry.t_cache;
            })
    in
    (* keep the disk layer within its budget as the daemon accumulates
       programs; outside the lock, it's pure file-system work *)
    (match (t.cache, t.disk_budget) with
    | Some c, Some budget -> ignore (Engine_cache.prune c ~max_bytes:budget)
    | _ -> ());
    result

(* ---- in-place update (protocol v5) ---------------------------------------------- *)

(* Re-analyze a live session incrementally: diff the new content's
   per-procedure digests against the session's solved snapshot, re-solve
   only the dirty region, splice the rest (Incr_engine).  The session
   keeps its place in the working set but changes identity — ses_id is
   the content digest, and the content changed — so callers must re-read
   the entry's id.  [source] overrides the on-disk content (a client
   editing a buffer); absent, the file is re-read.

   Raises [Not_found] when no live session exists for [path] (the
   client must open first — there is nothing to splice from), and
   [Tier_unavailable] when the live session is not exhaustive: a
   baseline or dyck tier has no CI solution to diff against. *)
let update ?source t path =
  let input =
    match source with
    | Some s -> Engine.load_string ~file:path s
    | None -> Engine.load_file path
  in
  let key = Engine.cache_key t.config input in
  let old =
    locked t (fun () ->
        match Hashtbl.find_opt t.by_path path with
        | Some id -> Hashtbl.find_opt t.tbl id
        | None -> None)
  in
  match old with
  | None -> raise Not_found
  | Some e ->
    let a =
      match analysis e with
      | Some a -> a
      | None ->
        raise
          (Tier_unavailable
             (Printf.sprintf
                "session %s holds a %s-tier solution; incremental update \
                 needs the exhaustive ci tier (re-open without a deadline \
                 first)"
                e.ses_id
                (Engine.string_of_tier (tier e))))
    in
    (* Solve outside the manager lock, like open_path: the old entry
       stays live and queryable until the swap below. *)
    let td, outcome =
      match
        Engine.analyze ~config:t.config ?cache:t.cache
          { Engine.default_request with prev = Some (Engine.incr_snapshot a) }
          input
      with
      | Ok ({ Engine.td_incr = Some outcome; _ } as td) -> (td, outcome)
      | Ok _ -> assert false (* an unbudgeted incremental run always splices *)
      | Error err -> raise (Engine_error err)
    in
    let digest =
      Option.map
        (fun (a : Engine.analysis) -> Solution_digest.ci_digest a)
        td.Engine.td_analysis
    in
    let entry =
      {
        ses_id = key;
        ses_path = path;
        ses_tiered = td;
        ses_modref =
          Option.map
            (fun (a : Engine.analysis) -> lazy (Modref.of_ci a.Engine.ci))
            td.Engine.td_analysis;
        ses_dyck = None;
        ses_bytes = approx_bytes td;
        ses_lock = Mutex.create ();
        ses_stamp = 0;
        ses_queries = 0;
        ses_digest = digest;
        ses_memo = Hashtbl.create 8;
      }
    in
    locked t (fun () ->
        (* drop whatever currently serves this path (it may have changed
           since the snapshot above — last update wins), plus any entry
           already holding the new key (two paths with equal content) *)
        (match Hashtbl.find_opt t.by_path path with
        | Some id -> (
          match Hashtbl.find_opt t.tbl id with
          | Some stale -> drop t stale
          | None -> ())
        | None -> ());
        (match Hashtbl.find_opt t.tbl key with
        | Some dup -> drop t dup
        | None -> ());
        Hashtbl.replace t.tbl key entry;
        Hashtbl.replace t.by_path path key;
        t.live_bytes <- t.live_bytes + entry.ses_bytes;
        touch t entry;
        t.st.st_updated <- t.st.st_updated + 1;
        evict_over_budget t ~keep:key);
    (entry, outcome)

(* The entry's canonical solution digest, memoized.  Computed on first
   ask for entries that gained their analysis after insertion (an
   upgraded dyck session); the dyck tier stays [None] — the digest never
   forces an upgrade. *)
let solution_digest _t e =
  match e.ses_digest with
  | Some _ as d -> d
  | None -> (
    match analysis e with
    | None -> None
    | Some a ->
      let d = Solution_digest.ci_digest a in
      e.ses_digest <- Some d;
      Some d)

let find t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | Some e ->
        touch t e;
        Some e
      | None -> None)

let close t id =
  let path =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl id with
        | Some e ->
          drop t e;
          t.st.st_closed <- t.st.st_closed + 1;
          Some e.ses_path
        | None -> None)
  in
  match path with
  | Some p ->
    (* also cancel any solve racing this close on the same file *)
    ignore (cancel_inflight t p : int);
    true
  | None -> false

let close_path t path =
  let dropped =
    locked t (fun () ->
        match Hashtbl.find_opt t.by_path path with
        | Some id -> (
          match Hashtbl.find_opt t.tbl id with
          | Some e ->
            drop t e;
            t.st.st_closed <- t.st.st_closed + 1;
            true
          | None -> false)
        | None -> false)
  in
  let cancelled = cancel_inflight t path in
  dropped || cancelled > 0

(* Serialize work on one session: queries against different sessions run
   on different worker domains; two clients of the same session take
   turns. *)
let with_entry e f =
  Mutex.lock e.ses_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock e.ses_lock)
    (fun () ->
      e.ses_queries <- e.ses_queries + 1;
      f ())

exception Busy

(* The reactor's non-blocking variant: an inline query must never park
   the event loop behind a session lock a worker job (a lint, a CS
   solve) is holding — it punts back to the pool instead. *)
let try_with_entry e f =
  if Mutex.try_lock e.ses_lock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.ses_lock)
      (fun () ->
        e.ses_queries <- e.ses_queries + 1;
        f ())
  else raise Busy

let live t = locked t (fun () -> Hashtbl.length t.tbl)

let stats_json t =
  locked t (fun () ->
      [
        ("live", Ejson.Int (Hashtbl.length t.tbl));
        ("live_bytes", Ejson.Int t.live_bytes);
        ("max_entries", Ejson.Int t.max_entries);
        ("max_bytes", Ejson.Int t.max_bytes);
        ("inflight", Ejson.Int (List.length t.inflight));
        ("solved", Ejson.Int t.st.st_solved);
        ("session_hits", Ejson.Int t.st.st_session_hits);
        ("invalidated", Ejson.Int t.st.st_invalidated);
        ("evicted", Ejson.Int t.st.st_evicted);
        ("closed", Ejson.Int t.st.st_closed);
        ("degradations", Ejson.Int t.st.st_degraded);
        ("upgraded", Ejson.Int t.st.st_upgraded);
        ("cancelled", Ejson.Int t.st.st_cancelled);
        ("updated", Ejson.Int t.st.st_updated);
      ])

let engine_cache_stats_json t =
  match t.cache with None -> None | Some c -> Some (Engine_cache.stats_json c)
