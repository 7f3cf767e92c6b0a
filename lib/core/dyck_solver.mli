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

    {!solve} is one exhaustive saturation, like {!Ci_solver.solve}: it
    seeds the base and alloc addresses and the argv store pair, pushes
    each first insertion of a pair to every consumer of its output, and
    re-queues every lookup when the global store grows.  With no store
    chains to thread it is cheaper than a CI solve, and afterwards every
    query is a lookup. *)

type t

val solve : ?config:Ci_solver.config -> ?budget:Budget.t -> Vdg.t -> t
(** Run to fixpoint.  The config contributes only the worklist
    [schedule] — strong updates do not exist at this tier.  When
    [budget] is given, transfer and meet applications tick it; a tripped
    limit raises {!Budget.Exhausted} and the partial state is discarded
    by the caller. *)

val graph : t -> Vdg.t

val pairs : t -> Vdg.node_id -> Ptpair.Set.t
(** Points-to pairs on a value output; store-typed outputs are empty
    (the global store stands for all of them).  A superset of
    [Ci_solver.pairs] on the same graph. *)

val referenced_locations : t -> Vdg.node_id -> Apath.t list
(** As {!Ci_solver.referenced_locations}: the location referents of a
    lookup/update node's location input, deduplicated, in insertion
    order. *)

val store_pairs : t -> Ptpair.t list
(** Contents of the global store relation, in insertion order: every
    [(location, referent)] any update may have written, plus the argv
    seed. *)

val flow_in_count : t -> int
val flow_out_count : t -> int

val worklist_pushes : t -> int
(** Lifetime worklist additions.  A push only follows the first
    insertion of a pair at its producer, or into the global store, so
    this is exactly [Σ_o |pairs o| × |consumers o| + |store_pairs| ×
    |lookups|] (test_ptset checks the equality). *)

val worklist_pops : t -> int
(** Equals {!worklist_pushes} at fixpoint. *)

val ptset_stats : t -> Ptset.stats
(** Hash-consing work attributed to this solve, as
    {!Ci_solver.ptset_stats}. *)
