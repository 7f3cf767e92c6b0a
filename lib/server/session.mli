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

    An entry's solution never changes: a query reads the one the open
    (or {!update}) produced.  Every CI solve here is the sequential
    {!Ci_solver} fixpoint, through {!Engine.analyze}. *)

type entry = {
  ses_id : string;  (** the {!Engine.cache_key} digest, exposed to clients *)
  ses_path : string;
  ses_tiered : Engine.tiered;
      (** the solution, at whatever tier survived the budget *)
  ses_modref : Modref.t Lazy.t option;
      (** CI mod/ref sets, built on first query; [None] below [Ci] *)
  ses_bytes : int;  (** approximate retained size of [ses_tiered] *)
  ses_lock : Mutex.t;  (** serializes queries on this session *)
  mutable ses_stamp : int;  (** LRU clock value of the last touch *)
  mutable ses_queries : int;
  ses_digest : string option;
      (** the canonical solution digest ({!Solution_digest.ci_digest}),
          computed when the entry is built; [None] below [Ci] *)
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

val require_analysis : entry -> Engine.analysis
(** The entry's full [>= Ci] solution.
    @raise Tier_unavailable at the baseline tiers. *)

val require_modref : entry -> Modref.t
(** The CI mod/ref sets, built on first use.  Callers must hold the
    entry's lock ({!with_entry}).
    @raise Tier_unavailable at the baseline tiers. *)

type t

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
  ?deadline_s:float -> ?min_tier:Engine.tier -> t -> string -> open_result
(** Load (re-stat and re-digest) the file and return its session, solving
    CI before returning.  With [deadline_s], the solve runs under a
    wall-clock budget and may land at a degraded tier no lower than
    [min_tier].  [min_tier] defaults to [Steensgaard] when a deadline
    (explicit or server default) is in force, else [Ci] — so an
    undeadlined open never accepts a degraded live session: it drops it
    and solves again (counted under the [upgraded] stat).

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
    baseline tier has no CI solution to diff against.
    @raise Engine_error when the incremental solve returns [Error]. *)

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
    request key -> (result JSON, degradation count).  An entry's
    solution never changes (update/re-open build a fresh entry), so
    nothing invalidates it.  Bounded; both calls must run under
    {!with_entry}/{!try_with_entry}. *)

val memo_add : entry -> string -> Ejson.t * int -> unit

val live : t -> int

val stats_json : t -> (string * Ejson.t) list
(** Includes the governance counters ([inflight], [degradations],
    [upgraded], [cancelled], [updated]). *)

val engine_cache_stats_json : t -> (string * Ejson.t) list option
(** The engine cache's hit/miss/store counters, when a cache is wired. *)
