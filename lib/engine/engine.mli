(** The single front door to the analysis pipeline.

    Every client (CLI, examples, bench harness, figure generator, query
    server) goes through the engine instead of hand-rolling
    read_file -> Norm.compile -> Vdg_build.build -> Ci_solver.solve ->
    Cs_solver.solve, and every pipeline run goes through one entry
    point, {!analyze}, driven by a {!request}:

    {[
      match Engine.analyze Engine.default_request (Engine.load_file "prog.c") with
      | Error e -> prerr_endline (Engine.error_message e)
      | Ok { td_analysis = Some a; _ } ->
        ... a.ci ...                 (* context-insensitive solution *)
        ... Engine.cs a ...          (* CS solution, solved on demand *)
        ... a.telemetry ...          (* per-phase times + counters *)
      | Ok _ -> ...                  (* a degraded tier (budgeted runs) *)
    ]}

    Phases: load -> frontend (preproc/parse/sema/SIL) -> vdg (SSA) ->
    ci (Figure 1) -> cs (Figure 5, lazily forced).  Each phase is timed
    into the analysis' {!Telemetry.t}.  The ci phase is always the one
    sequential worklist fixpoint, {!Ci_solver.solve} (or its incremental
    splice, {!Incr_engine.update}); the engine never shards a solve.

    {!analyze} optionally consults an {!Engine_cache.t} keyed by a digest
    of the source text and the configuration fingerprint: an on-disk
    store (Marshal, version-guarded) that lets a later process skip the
    solve.

    {2 Resource governance}

    Failure is a value: {!analyze} returns [('a, error) result].  A
    {!Budget.t} threaded into the solvers turns unbounded solves into
    governed ones, and the precision-degradation ladder
    [Cs -> Ci -> Andersen -> Steensgaard] answers an exhausted budget:
    the engine falls back to the next coarser tier (recompiling is cheap
    next to any solve) and tags the result with the {!tier} actually
    achieved.  This operationalizes the paper's headline —
    context-sensitivity buys ~2% precision for orders of magnitude of
    cost — as a latency lever: under resource pressure, trade precision
    instead of failing. *)

type input = {
  in_file : string;  (** display name, used in diagnostics and telemetry *)
  in_source : string;
  in_load_seconds : float;
}

type config = {
  ci_config : Ci_solver.config;
  cs_config : Cs_solver.config;
  vdg_mode : Vdg_build.mode;
}

val default_config : config

(** {2 The precision ladder} *)

(** Analysis tiers in increasing precision (and cost) order.  [Dyck]
    sits between [Andersen] and [Ci]: field-sensitive like [Ci]
    (accessor chains are matched as Dyck parenthesis strings) but
    flow-insensitive — one global store relation, no strong updates — so
    its answers are a sound superset of [Ci]'s. *)
type tier = Steensgaard | Andersen | Dyck | Ci | Cs

val tier_rank : tier -> int
(** 0 (Steensgaard) .. 4 (Cs); monotone in precision. *)

val string_of_tier : tier -> string
val tier_of_string : string -> tier option
val all_tiers : tier list
(** In ascending rank order. *)

(** One step down the ladder: the tier abandoned, the tier that answered
    instead, and the budget axis that tripped. *)
type degradation = { d_from : tier; d_to : tier; d_reason : Budget.reason }

val degradation_json : degradation -> Ejson.t
(** [{"from": ..., "to": ..., "reason": ...}]. *)

(** {2 The error taxonomy} *)

type error =
  | Frontend_error of { fe_loc : Srcloc.t; fe_message : string }
      (** lexer/preprocessor/parser/type error in the source *)
  | Budget_exhausted of { be_tier : tier; be_reason : Budget.reason }
      (** the budget tripped at [be_tier] and the floor ([min_tier])
          forbade degrading further *)
  | Cancelled  (** {!Budget.cancel} was called; no coarser tier is tried *)

val error_message : error -> string
val error_json : error -> Ejson.t
(** [{"error": kind, ...}] with kind one of ["frontend-error"],
    ["budget-exhausted"], ["cancelled"]. *)

type cs_cell
(** The demand-driven context-sensitive half, solved at most once per
    analysis. *)

type analysis = {
  a_input : input;
  a_config : config;
  prog : Sil.program;
  graph : Vdg.t;
  ci : Ci_solver.t;
  cs_cell : cs_cell;
  telemetry : Telemetry.t;
  a_digests : ((string * string) list * string) Lazy.t;
      (** per-procedure canonical digests + program digest
          ({!Proc_summary}), the identity baseline an incremental update
          diffs against; forced lazily by incremental clients *)
}

(** {2 Loading} *)

val load_file : string -> input
(** Reads the whole file; the channel is closed even if reading raises.
    @raise Sys_error on an unreadable path. *)

val load_string : ?file:string -> string -> input

(** {2 Staged phase API}

    For clients that need a single phase (the bench harness times them
    individually; the interpreter only needs the SIL program). *)

val compile : input -> Sil.program
val build_graph : ?config:config -> Sil.program -> Vdg.t
val solve_ci : ?config:config -> ?budget:Budget.t -> Vdg.t -> Ci_solver.t
val solve_cs :
  ?config:config -> ?budget:Budget.t -> Vdg.t -> ci:Ci_solver.t -> Cs_solver.t

(** {2 The pipeline} *)

val cache_key : config -> input -> string
(** The content-hash key {!analyze} files results under: a digest of the
    source text and the configuration fingerprint.  The query server
    uses it as the session identity. *)

(** A flow-insensitive fallback solution, for tiers below [Dyck]. *)
type baseline = Base_andersen of Andersen.t | Base_steensgaard of Steensgaard.t

(** What {!analyze} produced: the tier achieved and the solution
    component that tier has. *)
type tiered = {
  td_input : input;
  td_tier : tier;  (** the tier actually achieved *)
  td_analysis : analysis option;  (** present iff [td_tier >= Ci] *)
  td_dyck : Dyck_solver.t option;
      (** present iff the run landed on the dyck rung; already solved *)
  td_baseline : baseline option;  (** present iff [td_tier < Dyck] *)
  td_prog : Sil.program;
  td_telemetry : Telemetry.t;
      (** a private copy annotated with tier, degradations, and budget
          consumption *)
  td_degradations : degradation list;  (** ladder descents, in order *)
  td_incr : Incr_engine.outcome option;
      (** present iff the CI solve was spliced from [prev]: which
          procedures were re-solved *)
}

(** One pipeline run. *)
type request = {
  want : tier;
      (** the tier aimed for; [Dyck] solves the Dyck tier instead of
          CI, [Cs] also forces the CS solve, anything else solves CI *)
  min_tier : tier;
      (** the precision floor; a floor above [want] raises [want] to it *)
  budget : Budget.t option;  (** [None]: unbudgeted *)
  prev : Incr_engine.prev option;
      (** a previous snapshot ({!incr_snapshot}) to splice the CI solve
          from instead of solving cold *)
}

val default_request : request
(** [{want = Ci; min_tier = Steensgaard; budget = None; prev = None}]:
    an unbudgeted, cold CI solve. *)

val analyze :
  ?config:config ->
  ?cache:Engine_cache.t ->
  request ->
  input ->
  (tiered, error) result
(** Run the pipeline at the highest affordable tier at or above
    [min_tier].

    {b Exhaustive} ([want >= Ci], or any [want] other than [Dyck]):
    compile, build the VDG and solve CI; with [want = Cs], also force
    the CS solve.  With no budget the run always reaches [want], so
    [td_analysis] is [Some] — callers that need the {!analysis} read it
    from there.  With [cache], the disk snapshot is consulted before
    solving, and a fresh solution is stored there; a hit's telemetry
    reports [Disk_hit].  A corrupt entry is purged and re-solved.

    {b Incremental} ([prev = Some p]): the CI solve splices [p] through
    {!Incr_engine.update}: only procedures whose canonical digest
    changed (plus whatever the splice checks force in) are re-solved,
    and the result is digest-identical to a cold solve.  The cache is
    written, never read, and [td_incr] reports the splice.

    {b Dyck} ([want = Dyck]): compile, build the VDG and run the one
    exhaustive {!Dyck_solver.solve}, all under the budget, and return
    the solution in [td_dyck] (its counters in the telemetry's
    [t_dyck]).  An exhaustion there takes the same floor-or-descend exit
    as a frontend or VDG exhaustion: [Budget_exhausted] at [Dyck] when
    the floor is [Dyck], else the baselines.  A warm cached full
    solution outranks it: with [cache], a hit answers at [Ci]/[Cs].

    {b Degradation}: on budget exhaustion the engine descends
    [Cs -> Ci -> Andersen -> Steensgaard] until a tier completes; ladder
    steps are reported in [td_degradations].  The wall-clock deadline is
    shared across the whole descent; operation ceilings restart per
    tier.  The default descent skips the dyck rung.  An explicit
    [min_tier = Dyck] sends a CI exhaustion there instead, which
    recovers only from an operation ceiling: a CI solve stops on the
    deadline only once it has passed, so the rung's first deadline check
    fails and the run ends with [Budget_exhausted] at [Dyck].  Steensgaard never exhausts: it
    is near-linear and terminal, so with the default floor the ladder
    always bottoms out on an answer.

    Errors: [Frontend_error]; [Budget_exhausted] when the floor forbids
    descending past the tier that trips; [Cancelled] on cancellation
    (never degraded). *)

val incr_snapshot : analysis -> Incr_engine.prev
(** Capture the analysis as the baseline a later incremental request
    ([prev]) diffs against.  For an analysis rehydrated from the disk
    cache, the digests are the persisted ones, so a restarted session
    resumes incrementality against the exact identity of the solved
    snapshot. *)

(** {2 The context-sensitive half}

    These force the CS solve of an analysis {!analyze} already produced;
    they do not run the pipeline. *)

val cs : analysis -> Cs_solver.t
(** Force the context-sensitive solve; idempotent, safe under domains.
    Unbudgeted: may raise [Cs_solver.Budget_exceeded] if the config's
    [max_meets] fuel runs out. *)

val cs_forced : analysis -> bool
(** Has {!cs} (or a cached CS solution) already been materialized? *)

(** Outcome of a budget-governed CS force: either the CS solution, or a
    degradation back to the already-solved CI tier. *)
type cs_outcome = {
  co_tier : tier;  (** [Cs], or [Ci] when the solve was abandoned *)
  co_cs : Cs_solver.t option;
  co_degradation : degradation option;
}

val cs_tiered : ?budget:Budget.t -> analysis -> (cs_outcome, error) result
(** Budget-governed {!cs}.  An exhausted budget is NOT an error: the
    result is [Ok {co_tier = Ci; co_cs = None; co_degradation = Some _}]
    and the caller answers queries from [a.ci] — identical verdicts to a
    direct CI run, since the CI solution is already complete.  Only
    cancellation surfaces as [Error Cancelled]. *)

(** {2 Queries at degraded tiers}

    Below [Ci] there is no VDG, so memory operations are identified by
    source line; both baselines are field-insensitive, so target sets
    overlap iff they share an abstract location. *)

val line_locations : tiered -> int -> Absloc.t list option
(** Locations touched by dereferences on one source line; [None] when
    [td_tier >= Ci] (use the node-level {!Query} API instead). *)

val line_may_alias : tiered -> int -> int -> bool option
(** May dereferences on the two lines touch common storage?  [None] when
    [td_tier >= Ci]. *)
