(** Dyck-reachability alias analysis (flow-insensitive rung of the
    ladder, after "Optimal Dyck Reachability for Data-Dependence and
    Alias Analysis", PAPERS.md).

    The solver reads the same VDG as {!Ci_solver} but treats it as a
    Dyck-labeled graph: field accessors are parenthesis symbols, an
    address-of-field node ([Nfield_addr]) is an open-parenthesis edge
    (the accessor is pushed onto the path), and a lookup or member read
    is a close-parenthesis edge (the accessor chain is matched and
    cancelled by [Apath.dom]/[Apath.subtract]).  A points-to fact is a
    partially-matched Dyck word — exactly the [Ptpair.t] of the other
    solvers, whose offset component is the stack of currently-open
    parentheses — and the interning k-limit ([Apath.max_depth]) is the
    bounded-stack restriction that keeps the language regular enough to
    saturate.  Worklist dedup and set membership run over the packed
    63-bit {!Ptpair.key} ints, like every other solver here.

    What distinguishes the tier from [Ci] is the store model: instead of
    threading one SSA store value per program point, the solver keeps a
    {e single global store} relation.  Every update writes into it,
    every lookup reads from it, nothing is ever strongly updated.  The
    tier is therefore field-sensitive but flow-insensitive — strictly
    coarser than [Ci] (every CI-derivable pair is Dyck-derivable, since
    the global store is a superset of every threaded store and no kill
    ever fires) and in practice strictly finer than the field-blind
    [Andersen] baseline.  It slots between the two in the precision
    ladder.

    Both query modes share one saturation engine:

    - {!solve_all} activates every node and runs to fixpoint — the
      exhaustive all-pairs mode, cheaper than a CI solve because no
      store chains are threaded.
    - {!resolve} is the on-demand single-pair mode: it activates only
      the backward value slice of the queried node (plus, the first time
      a lookup is demanded, the update sites that feed the global
      store); a node is never activated before some query needs it.  A
      [Query.may_alias] on two nodes resolves two slices and compares
      target sets; no full solve happens.

    Resolved slices persist, so repeated queries amortize toward the
    exhaustive solution. *)

type t

val create : ?config:Ci_solver.config -> ?budget:Budget.t -> Vdg.t -> t
(** A solver with every node inactive; no solving happens here.  The
    config contributes only the worklist [schedule] — strong updates do
    not exist at this tier.  When [budget] is given, transfer and meet
    applications tick it; a tripped limit raises {!Budget.Exhausted}
    (the partial state stays monotone and later queries resume it). *)

val graph : t -> Vdg.t

val resolve : t -> Vdg.node_id -> Ptpair.Set.t
(** Demand the node's points-to set (single-pair on-demand mode):
    activate its backward slice, saturate, return the pairs.  A superset
    of [Ci_solver.pairs] on the same graph. *)

val referenced_locations : t -> Vdg.node_id -> Apath.t list
(** As {!Ci_solver.referenced_locations}: the location referents of a
    lookup/update node's location input, deduplicated, resolving only
    that input's slice. *)

val solve_all : t -> unit
(** Exhaustive mode: activate everything and saturate.  Idempotent;
    afterwards every {!resolve} is a cache hit. *)

val store_pairs : t -> Ptpair.t list
(** Contents of the global store relation, in insertion order: every
    [(location, referent)] any update may have written.  Grows as
    queries activate more update sites. *)

(* ---- counters (Telemetry / server stats) ---- *)

val queries : t -> int
val cache_hits : t -> int
(** Demands whose node was already active — answered with no new work. *)

val nodes_activated : t -> int
val nodes_total : t -> int
val store_size : t -> int
(** [List.length (store_pairs t)], O(1). *)

val flow_in_count : t -> int
val flow_out_count : t -> int
val worklist_pushes : t -> int
val worklist_pops : t -> int
