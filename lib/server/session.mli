(** The daemon's working set: solved analysis results, alive across
    requests, keyed by {!Engine.cache_key} (a digest of the source text
    and the configuration fingerprint).

    Identity is content, not path: re-opening an unchanged file
    re-digests it and lands on the live session (a "session hit" — no
    re-solve); re-opening a file whose content changed produces a new
    key, solves fresh, and drops the stale session for that path.  The
    working set is bounded by an entry count and an approximate byte
    budget, evicted LRU, and it is the daemon's only in-memory copy of a
    solution: a closed, replaced or evicted session's solution is
    garbage.  The engine's disk cache (when configured) still holds it,
    so re-opening a dropped session is a disk hit; without a cache it is
    a cold solve.

    Governance: an open may carry a deadline, in which case the solve
    runs under a {!Budget.t} and may land at a degraded tier — the entry
    then holds a baseline solution instead of a full {!Engine.analysis}.
    A session hit requires the live entry's tier to satisfy the
    request's floor; a too-coarse entry is dropped and re-solved (the
    upgrade path).  Budgets of in-flight solves are registered by path
    so close/shutdown can cancel them mid-solve.

    A session opened in dyck mode holds only the Dyck-tier solution.
    The first query that needs the exhaustive one upgrades the entry in
    place ({!require_analysis}), which runs the whole exhaustive
    pipeline; the server's reactor therefore hands such a query to a
    worker ({!Handler.handle}).  Every CI solve here is the sequential
    {!Ci_solver} fixpoint, through {!Engine.analyze}. *)

type entry = {
  ses_id : string;  (** the {!Engine.cache_key} digest, exposed to clients *)
  ses_path : string;
  mutable ses_tiered : Engine.tiered;
      (** the solution, at whatever tier survived the budget; a
          dyck-tier entry is upgraded in place (under [ses_lock]) when a
          query needs the exhaustive solution *)
  mutable ses_modref : Modref.t Lazy.t option;
      (** CI mod/ref sets, built on first query; [None] below [Ci],
          filled in by the upgrade *)
  mutable ses_dyck : Dyck_solver.t option;
      (** per-session dyck solution for [tier="dyck"] queries on a
          node-tier session, solved by {!require_dyck} on first use or
          handed on by an upgrade; dyck-tier sessions answer from
          [td_dyck] instead *)
  ses_bytes : int;  (** approximate retained size of [ses_tiered] *)
  ses_lock : Mutex.t;  (** serializes queries on this session *)
  mutable ses_stamp : int;  (** LRU clock value of the last touch *)
  mutable ses_queries : int;
  mutable ses_digest : string option;
      (** memoized canonical solution digest; [None] below [Ci] *)
  ses_memo : (string, Ejson.t * int) Hashtbl.t;
      (** per-session answer memo, see {!memo_find} — use the accessors,
          not the table *)
}

exception Engine_error of Engine.error
(** An open's solve came back [Error]; the handler maps the payload to
    the protocol's error taxonomy. *)

exception Tier_unavailable of string
(** A query needed a solution component (VDG, CI points-to sets, mod/ref)
    the entry's degraded tier does not have. *)

val tier : entry -> Engine.tier

val analysis : entry -> Engine.analysis option
(** [Some] iff the entry holds a full [>= Ci] solution. *)

val dyck : entry -> Dyck_solver.t option
(** The entry's dyck solution, while the session sits at the dyck tier
    (an upgrade hands it on to [ses_dyck]). *)

type t

val require_analysis : t -> entry -> Engine.analysis
(** Ensure the entry holds a full [>= Ci] solution, upgrading a dyck-tier
    entry in place by running {!Engine.analyze} over the entry's own
    input (same text, so node ids carry over; counted under the
    [upgraded] stat).  Callers must hold the entry's lock
    ({!with_entry}).
    @raise Tier_unavailable at the baseline tiers.
    @raise Engine_error when the upgrade itself fails. *)

val require_modref : t -> entry -> Modref.t
(** As {!require_analysis}, then the CI mod/ref sets. *)

val require_dyck : t -> entry -> Dyck_solver.t
(** The solution behind [tier="dyck"] queries: a dyck-tier entry's own,
    else one {!Dyck_solver.solve} over a node-tier entry's VDG, run once
    per session and unbudgeted, then kept in [ses_dyck].  Callers must
    hold the entry's lock ({!with_entry}).
    @raise Tier_unavailable at the baseline tiers (no VDG). *)

val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  ?config:Engine.config ->
  ?cache:Engine_cache.t ->
  ?disk_budget:int ->
  ?default_deadline_s:float ->
  unit ->
  t
(** [max_entries] (default 16, minimum 1) and [max_bytes] (default 1 GiB;
    0 disables the byte budget) bound the in-memory working set.  With
    [cache], solves go through the engine's disk cache; with
    [disk_budget], {!Engine_cache.prune} runs after each open.
    [default_deadline_s] is applied to opens that do not name their own
    deadline — the server-wide budget default. *)

type open_status =
  [ `Session_hit  (** answered by a live session, nothing re-solved *)
  | `Solved of Telemetry.cache_status
    (** went through the engine; the status tells whether the engine
        cache answered from disk or the engine solved cold *) ]

type open_result = { or_entry : entry; or_status : open_status }

val open_path :
  ?deadline_s:float ->
  ?min_tier:Engine.tier ->
  ?mode:[ `Dyck | `Exhaustive ] ->
  t ->
  string ->
  open_result
(** Load (re-stat and re-digest) the file and return its session.  With
    [deadline_s], the solve runs under a wall-clock budget and may land
    at a degraded tier no lower than [min_tier].  [min_tier] defaults to
    [Steensgaard] when a deadline (explicit or server default) is in
    force, else the mode's aim — so an undeadlined open never accepts,
    and will upgrade, a degraded live session.

    [mode] (default [`Exhaustive], the v2 wire behavior) picks the
    pipeline: [`Exhaustive] solves CI before returning; [`Dyck] solves
    the flow-insensitive Dyck-reachability tier instead, which has no
    store chains to thread and so opens faster; either way a query at
    the session's own tier is a lookup, while one that needs the
    exhaustive solution upgrades a dyck session ({!require_analysis}).
    A dyck open is satisfied by any live
    sufficiently-precise session; an exhaustive open landing on a live
    dyck session upgrades it in place ({!require_analysis}) and reports
    a session hit.

    @raise Sys_error on an unreadable path.
    @raise Engine_error when the solve returns [Error] (frontend error,
    floor violation, cancellation). *)

val update : ?source:string -> t -> string -> entry * Incr_engine.outcome
(** Re-analyze the live session for a path incrementally (protocol v5's
    "update"): diff the new content's per-procedure digests against the
    session's solved snapshot, re-solve only the dirty region, splice
    the rest ({!Incr_engine}).  [source] overrides the on-disk content
    (a client editing a buffer); absent, the file is re-read.

    The session keeps its place in the working set but changes identity
    — [ses_id] is the content digest — so callers must re-read the
    returned entry's id.  The outcome reports which procedures were
    re-solved; counted under the [updated] stat.
    @raise Not_found when no live session exists for the path (open it
    first — there is nothing to splice from).
    @raise Tier_unavailable when the live session is not exhaustive: a
    baseline or dyck tier has no CI solution to diff against.
    @raise Engine_error when the incremental solve returns [Error]. *)

val solution_digest : t -> entry -> string option
(** The entry's canonical solution digest ({!Solution_digest.ci_digest}),
    memoized on the entry; computed on first ask for entries that gained
    their analysis after insertion (an upgraded session).  [None] for
    the dyck and baseline tiers — never forces an upgrade. *)

val find : t -> string -> entry option
(** Look up a live session by id; touches its LRU stamp. *)

val close : t -> string -> bool
(** Drop a session by id and cancel any in-flight solve for its path;
    false when the id names no live session. *)

val close_path : t -> string -> bool
(** Drop the live session for a path (if any) and cancel any in-flight
    solves for it; false when there was nothing to drop or cancel. *)

val cancel_inflight : t -> string -> int
(** Cancel every in-flight solve registered for a path; returns how many
    budgets were cancelled.  The cancelled opens fail with
    [Engine_error Cancelled]. *)

val cancel_all_inflight : t -> int
(** Shutdown path: cancel every in-flight solve. *)

val with_entry : entry -> (unit -> 'a) -> 'a
(** Serialize work on one session: queries against different sessions run
    on different worker domains; two clients of the same session take
    turns. *)

exception Busy

val try_with_entry : entry -> (unit -> 'a) -> 'a
(** As {!with_entry} but never blocks: raises {!Busy} when the session
    lock is already held.  The reactor evaluates inline queries through
    this so a worker-held lock punts the query back to the pool instead
    of parking the event loop. *)

val memo_find : entry -> string -> (Ejson.t * int) option
(** Per-session answer memo for methods that are deterministic functions
    of the solution and their params (lint, purity, conflicts, modref):
    request key -> (result JSON, degradation count).  Invalidated
    whenever the entry's solution changes (tier upgrade in place;
    update/re-open build a fresh entry).  Bounded; both calls must run
    under {!with_entry}/{!try_with_entry}. *)

val memo_add : entry -> string -> Ejson.t * int -> unit

val live : t -> int

val stats_json : t -> (string * Ejson.t) list
(** Includes the governance counters ([inflight], [degradations],
    [upgraded], [cancelled], [updated]). *)

val engine_cache_stats_json : t -> (string * Ejson.t) list option
(** The engine cache's hit/miss/store counters, when a cache is wired. *)
