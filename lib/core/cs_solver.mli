(** The maximally context-sensitive points-to analysis (paper, Section 4).

    The same dataflow framework as {!Ci_solver}, but propagating
    {e qualified} points-to pairs: each pair carries a set of assumptions
    tying it to points-to facts on the enclosing procedure's formals.
    Assumptions are introduced when actuals flow to formals at calls, and
    checked/rewritten at returns: an assumption on a returned pair is
    satisfied by the assumption sets of the matching actual pairs at each
    call site, and the Cartesian product over a pair's assumptions yields
    the caller-side assumption sets (Figure 5's [propagate-return]).

    Implemented optimizations (Section 4.2):
    - subsumption: a pair holding under [A] absorbs the same pair under
      any superset of [A] ({!Assumption.Antichain});
    - CI-derived pruning: no location assumptions are introduced at
      lookup/update nodes that the context-insensitive analysis proved to
      reference exactly one location, and store pairs that CI proves
      unmodified by an update pass through without picking up the
      update's location assumptions;
    - function pointers are handled context-insensitively (the call graph
      is taken from the CI solution), as in the paper's implementation.

    {2 State layout}

    The solve relies on CS ⊆ CI at every node: every (output, pair)
    entry it can derive owns a dense {e slot}, the output's base plus the
    pair's rank in CI's sorted key set there.  Per-slot data are flat
    arrays: the entry's antichain (its member list, [[]] when absent), a
    version bumped on every successful insert, and a link to the
    output's next entry in first-arrival order.  Worklist items carry
    their source slot.  Each return-propagation instance (a pair arriving
    at a return node under one assumption set, translated back to one
    call site along one callee edge) is created once, on the return
    path, and keeps its own memo: its satisfier slots and the sum of
    their versions when it last flowed; a successful insert re-runs the
    instances subscribed to its slot.  The CI call graph is read into
    arrays when the solve starts.  At
    fixpoint the solution keeps the slots, chains, order links and
    counters; subscriptions, instances, pruning tables and the worklist
    are dropped.  A derived pair outside CI's set breaks the invariant
    and raises [Invalid_argument] naming the node.

    The goal is an empirical upper bound on precision, not a practical
    analysis: worst-case cost is exponential, and the paper's cost
    metrics (transfer-function and meet counts) are exposed for the
    Section 4.2 comparison.  The only fuel is a {!Budget}. *)

type t

type config = {
  ci_pruning : bool;    (** use the CI solution to prune assumptions *)
  stale_skip : bool;
      (** drop worklist items whose assumption set was evicted from its
          antichain (by a weaker set) before the item was popped.  Sound
          and fixpoint-preserving: the evicting set pushed subsuming
          items of its own, so every flow the stale item would produce
          is derived (with a ⊆ assumption set) from those; only the
          per-output insertion order of first arrivals can shift.  The
          regression suite checks canonical solution digests against the
          pre-hash-consing seed. *)
}

val default_config : config

val solve : ?config:config -> ?budget:Budget.t -> Vdg.t -> ci:Ci_solver.t -> t
(** Run to fixpoint.  The CI solution supplies the call graph and the
    pruning information.  When [budget] is given, every transfer-function
    and meet application ticks it; a tripped limit raises
    {!Budget.Exhausted}. *)

val pairs : t -> Vdg.node_id -> Ptpair.t list
(** Unqualified projection: pairs on an output with assumptions stripped
    and duplicates removed (paper, end of Section 4.1), in the order
    they first arrived. *)

val qualified : t -> Vdg.node_id -> (Ptpair.t * Assumption.t list) list
(** Full qualified solution for clients that want it, in {!pairs} order;
    each pair's assumption sets are its antichain, newest first. *)

val flow_in_count : t -> int
val flow_out_count : t -> int

val worklist_pushes : t -> int
(** Lifetime worklist additions of qualified work items. *)

val worklist_pops : t -> int
(** Lifetime worklist removals; equals [worklist_pushes] at fixpoint. *)

val worklist_stale_skips : t -> int
(** Popped items dropped by the stale-member check (counted within
    [worklist_pops]); each one saves a full transfer-function cascade. *)

val ptset_stats : t -> Ptset.stats
(** Hash-consing work attributed to this solve ({!Ptset.delta} around
    the fixpoint loop): interned sets, meet-cache hits/misses, table
    bytes. *)

val referenced_locations : t -> Vdg.node_id -> Apath.t list
(** As {!Ci_solver.referenced_locations}, from the CS solution, but in
    the order the pairs first arrived (not sorted). *)

(** {2 Using the qualified information directly}

    The paper (end of Section 4.1) notes that some context-sensitive
    clients "prefer to use the qualified information directly; this would
    be easy to accommodate".  These queries project a callee's facts onto
    one call site: a qualified pair participates only if some of its
    assumption sets are satisfiable by the facts at that site. *)

val satisfiable_at : t -> call:Vdg.node_id -> Assumption.t -> bool
(** Can the assumption set hold when entered from the given call site?
    (One-level check: the matching actuals carry the assumed pairs under
    some context of the caller.) *)

val locations_at_callsite :
  t -> call:Vdg.node_id -> Vdg.node_id -> Apath.t list
(** Locations referenced by a memory operation of a directly-called
    procedure, restricted to contexts reachable through [call].  Falls
    back to the unrestricted set when the operation does not belong to a
    callee of [call]. *)

val assumption_ctx : t -> Assumption.ctx
