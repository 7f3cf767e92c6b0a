(** Assembly of every table and figure in the paper's evaluation.

    [analyze_benchmark] runs the whole pipeline once per benchmark
    (generate, compile, build the VDG, solve CI and CS, time both); the
    [figure*] functions then render the paper's Figures 2, 3, 4, 6 and 7
    and the Section 4.2 / 5.1.2 side tables from those results. *)

type bench_result = {
  entry : Suite.entry;
  src_lines : int;
  analysis : Engine.analysis;  (** pipeline results + phase telemetry *)
  prog : Sil.program;
  graph : Vdg.t;
  ci : Ci_solver.t;
  cs : Cs_solver.t;
  ci_seconds : float;
  cs_seconds : float;
}

val analyze_benchmark :
  ?cache:Engine_cache.t -> Suite.entry -> bench_result
(** Thin wrapper over {!Engine.analyze} (the CS solve is forced, since
    every figure needs it). *)

val analyze_suite :
  ?names:string list ->
  ?jobs:int ->
  ?cache:Engine_cache.t ->
  unit ->
  bench_result list
(** All benchmarks (or the named subset), in the paper's order.
    [jobs > 1] distributes benchmarks over that many domains
    ({!Par_runner.map}); results are order- and schedule-independent. *)

val suite_metrics : ?cache_stats:(string * Ejson.t) list -> bench_result list -> Ejson.t
(** The --metrics JSON payload: per-benchmark telemetry plus totals. *)

val figure2 : bench_result list -> Table.t
(** Benchmark programs and their sizes in source and VDG form. *)

val figure3 : bench_result list -> Table.t
(** Total points-to relationships by output type (context-insensitive). *)

val figure4 : bench_result list -> Table.t
(** Points-to statistics for indirect memory reads and writes. *)

val figure6 : bench_result list -> Table.t
(** Context-sensitive pair counts vs context-insensitive, % spurious. *)

val figure7 : bench_result list -> Table.t * Table.t
(** (all CI pairs, spurious pairs only), each a path-type x referent-type
    percentage matrix aggregated over the suite. *)

val headline : bench_result list -> Table.t
(** Per-benchmark: do CI and CS agree at every indirect memory
    operation's location input (the paper's Section 4.3 result)? *)

val cost_table : bench_result list -> Table.t
(** Section 4.2's cost comparison: transfer functions, meets, time. *)

val memo_table : bench_result list -> Table.t
(** Hash-consed set layer effectiveness per benchmark: executed CS
    meets, stale worklist skips, meet-cache hits/misses and hit rate,
    interned-set count and peak interning-table bytes. *)

val pruning_table : bench_result list -> Table.t
(** Section 4.2's optimization statistics. *)

val callgraph_table : bench_result list -> Table.t
(** Section 5.1.2's call-graph sparsity statistics. *)

val indirect_delta_count : bench_result -> int
(** Number of indirect operations where CS refines CI (0 reproduces the
    paper). *)

val ladder_table : bench_result list -> Table.t
(** Precision along the degradation ladder: the fraction of
    indirect-operation pairs judged may-alias per tier (CS and CI at VDG
    nodes; Andersen and Steensgaard line-keyed, as served at degraded
    tiers).  Quantifies what each budget-driven descent costs. *)

val lint_report : bench_result -> Lint.report
(** The full checker suite over one benchmark, CI and CS compared. *)

val checkers_table : bench_result list -> Table.t
(** Diagnostics per benchmark and per checker, plus the CI-vs-CS verdict
    delta (an empty delta column is the paper's client-level claim). *)
