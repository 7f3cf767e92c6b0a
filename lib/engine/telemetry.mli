(** Per-run instrumentation: wall-clock time per pipeline phase plus the
    solver cost counters the paper's Section 4.2 is framed around
    (transfer-function applications = flow_in, meet operations =
    flow_out, worklist traffic, and result sizes).  A telemetry record is
    carried by every [Engine.analysis] and serializes to JSON for
    [--metrics]. *)

type cache_status = Cold | Disk_hit

val string_of_cache_status : cache_status -> string
(** ["miss"], ["disk-hit"]. *)

type solver_counters = {
  sc_flow_in : int;  (** transfer-function applications *)
  sc_flow_out : int;  (** meet operations *)
  sc_worklist_pushes : int;
  sc_worklist_pops : int;
  sc_worklist_skips : int;
      (** popped items dropped without processing: CS stale-member
          skips, CI duplicate-push suppressions *)
  sc_pairs : int;  (** total points-to pairs in the solution *)
  sc_meet_cache_hits : int;  (** {!Ptset} memo-cache hits during the solve *)
  sc_meet_cache_misses : int;
  sc_interned_sets : int;  (** hash-consed sets created by the solve *)
  sc_peak_table_bytes : int;  (** intern-table high-water mark (domain) *)
}

(** One checker execution inside [analyze lint]: wall time and how many
    diagnostics it produced.  Runs against the CS solution are recorded
    under a ["cs:"]-prefixed checker name. *)
type checker_stat = {
  ck_checker : string;
  ck_seconds : float;
  ck_diagnostics : int;
}

(** One step down the precision ladder: which tier was abandoned, which
    tier answered instead, and which budget axis tripped (a
    {!Budget.reason} rendered as a string). *)
type degradation_event = {
  dg_from : string;
  dg_to : string;
  dg_reason : string;
}

type t = {
  t_file : string;
  t_source_bytes : int;
  mutable t_phases : (string * float) list;  (** in completion order *)
  mutable t_cache : cache_status;
  mutable t_functions : int;
  mutable t_vdg_nodes : int;
  mutable t_alias_outputs : int;
  mutable t_ci : solver_counters option;
  mutable t_cs : solver_counters option;
  mutable t_dyck : solver_counters option;  (** set on the dyck tier *)
  mutable t_incr : Incr_engine.stats option;
      (** set by an incremental [Engine.analyze] *)
  mutable t_checkers : checker_stat list;  (** in execution order *)
  mutable t_tier : string option;  (** ladder tier actually achieved *)
  mutable t_degradations : degradation_event list;  (** in occurrence order *)
  mutable t_budget : (string * Ejson.t) list;  (** budget consumption *)
}

val phase_names : string list
(** Phases recorded by [Engine.analyze], in pipeline order.  ["cs"] only
    appears once the lazily-forced context-sensitive solve has run;
    ["dyck"] and ["incr"] only on the runs that take those paths. *)

val create : file:string -> source_bytes:int -> t

val record_phase : t -> string -> float -> unit

val record_checker : t -> string -> seconds:float -> diagnostics:int -> unit

val record_degradation :
  t -> from_tier:string -> to_tier:string -> reason:string -> unit

val degradation_json : degradation_event -> Ejson.t
(** [{"from": ..., "to": ..., "reason": ...}] — the shape used in
    [--metrics] output, server responses and SARIF run properties. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall time under the given phase name. *)

val phase_seconds : t -> string -> float option

val total_seconds : t -> float

val copy : t -> t
(** A detached copy, so that cache hits can report their own status
    without mutating the record of the run that populated the cache. *)

(** {2 Latency distributions}

    Shared between the batch bench (per-phase tail latency across the
    suite) and the query server (per-method tail latency across
    requests), so the two latency tables read the same way. *)

type latency = {
  l_count : int;
  l_total : float;
  l_p50 : float;
  l_p95 : float;
  l_max : float;
}

val percentile : float array -> float -> float
(** [percentile sorted q] for [q] in [0,1], by linear interpolation
    between closest ranks; [sorted] must be ascending.  0 when empty. *)

val summarize : float list -> latency

val summarize_array : float array -> latency
(** As {!summarize} but sorts the caller's array in place (no boxing, no
    copy) — the shape the server's per-method ring buffers use. *)

val latency_json : latency -> (string * Ejson.t) list

(** {2 JSON} *)

val incr_json : Incr_engine.stats -> (string * Ejson.t) list
(** The seven ["incr_*"] counter fields, as embedded in {!to_json}, the
    server's [update] reply and the edit-replay report. *)

val to_json : t -> Ejson.t

val suite_to_json : ?cache_stats:(string * Ejson.t) list -> t list -> Ejson.t
(** A suite-level report: one entry per run plus aggregate totals, the
    shape [alias-analyze tables --metrics FILE] writes. *)
