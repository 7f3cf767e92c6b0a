(** Sharded parallel CI solve over the call-graph SCC condensation.

    One program's context-insensitive fixpoint is split across OCaml 5
    domains: procedures are grouped into SCCs of the statically visible
    call graph ({!Scc.condense}), each component is owned by the first
    domain that touches it, and component seed tasks are scheduled
    bottom-up over the condensation through steal-capable per-domain
    deques ({!Workbag.Deque}).  Facts that land on a foreign shard's
    node travel as messages and re-activate that shard, so dynamically
    discovered call edges (function pointers, higher-order extern
    summaries) and flows against the schedule are handled exactly, not
    approximated.  The merged solution is re-interned into the calling
    domain's Ptset universe and is byte-identical in
    {!Solution_digest} terms to a sequential {!Ci_solver.solve} — the
    fixpoint is unique and the digest order-canonical, which the test
    suite checks at widths 2, 4 and 8.

    Nothing in the product calls this module: the engine, the CLI and
    the server solve CI with {!Ci_solver.solve} only, because the
    sharded solve never cleared its speedup bar.  It remains for the
    benchmark's [par.*] layer metrics and their tests, and it ticks no
    budget. *)

type stats = {
  par_jobs : int;  (** domains actually used *)
  par_components : int;  (** scheduled components (incl. the program-level pseudo component) *)
  par_steals : int;  (** successful deque steals *)
  par_messages : int;  (** cross-shard events posted *)
}

val solve :
  ?config:Ci_solver.config -> jobs:int -> Vdg.t -> Ci_solver.t * stats
(** [solve ~jobs g] with [jobs <= 1] degrades to the sequential solver
    (with zeroed parallel stats). *)
