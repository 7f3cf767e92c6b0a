(** The context-insensitive points-to analysis (paper, Section 3, Figure 1).

    A points-to pair set is maintained on every node output, stored once
    as its hash-consed {!Ptset.t} of {!Ptpair.key}s.  Sets are grown with
    a worklist of {e slots}, one per (consumer, input) edge: whenever an
    output grows, the consumer slots it feeds are queued (at most once
    each), and a popped slot handles only the difference between its
    producer's current set and the version it last processed.
    Identity-like inputs (gammas, formals, returns, store forwarding at
    calls and through updates that kill nothing) meet the producer's
    whole set in one memoized union; per-pair work remains only where a
    transfer inspects pairs (lookup matching, strong-update kills, field
    and offset arithmetic, function values at calls).

    Calls and returns are handled like jumps: all information at a call's
    actuals propagates to all (discovered) callees, and all information
    at a procedure's returns propagates to all of its call sites.  Update nodes implicitly realize
    the dual-worklist strategy of Chase et al.: store-input pairs are
    blocked until a location pair arrives and are reprocessed as further
    location pairs arrive.

    The solver also maintains the dynamically discovered call graph
    (needed for indirect calls and for the paper's Section 5.1.2
    statistics) and counts transfer-function ([flow_in]) and meet
    ([flow_out]) applications, the cost metrics of Section 4.2, in
    logical per-pair units: a set-wide step counts the pairs it moves. *)

type t

type schedule = Workbag.schedule = Fifo | Lifo | Random_order of int
(** Worklist removal order (the seed parameterizes [Random_order]). *)

type config = {
  strong_updates : bool;  (** disable for the ablation bench *)
  schedule : schedule;
      (** worklist removal order; the solution is schedule-independent
          (the paper's Section 3.1 remark), which the tests verify *)
}

val default_config : config

val solve : ?config:config -> ?budget:Budget.t -> Vdg.t -> t
(** Run to fixpoint.  When [budget] is given, every transfer-function and
    meet application ticks it; a tripped limit raises {!Budget.Exhausted}
    and the partial solver state is discarded by the caller.  Ticks come
    in the same logical units as the counters. *)

val solve_warm :
  ?config:config ->
  ?budget:Budget.t ->
  Vdg.t ->
  frozen:bool array ->
  preset:(Vdg.node_id * Ptpair.Set.t) list ->
  calls:(Vdg.node_id * (string * int array option) list) list ->
  ext_calls:(Vdg.node_id * string list) list ->
  t * Vdg.node_id list
(** Region-restricted re-solve for {!Incr_engine}: nodes with
    [frozen.(nid)] keep their [preset] sets (installed without consumer
    notification) and [calls]/[ext_calls] preset their discovered call
    edges without repropagation; only the un-frozen region iterates to
    fixpoint, with boundary flows injected from the frozen facts (a
    region slot fed by a frozen node takes the frozen set as one delta).
    The second component lists frozen nodes whose set {e changed} during
    the solve — a non-empty list means the freeze was unsound for those
    nodes' procedures and the caller must re-run with them dirtied.
    Shrinkage is invisible to a monotone solver; the caller compares
    interface summaries against the previous solution instead. *)

val graph : t -> Vdg.t
val pairs : t -> Vdg.node_id -> Ptpair.Set.t
(** Points-to pairs on an output (empty set if none were derived), as
    the node's hash-consed version; iterate it with {!Ptpair.Set} and
    the graph's [tbl]. *)

val flow_in_count : t -> int
(** Transfer applications: the sum over popped slots of the pairs new to
    the slot.  Each slot processes each of its producer's pairs exactly
    once, so at fixpoint this is exactly [Σ_o |pairs o| × |consumers o|]
    (test_ptset checks the equality), whatever the schedule. *)

val flow_out_count : t -> int
(** Logical per-pair meets: the pairs carried by each whole-set meet
    (a slot's new pairs along an identity edge; the whole set for a
    call-edge repropagation or an update re-scan; a return node's growth
    once per caller), plus one per derived pair.  Like the per-pair
    solver's count, it depends slightly on the schedule. *)

val worklist_pushes : t -> int
(** Slot activations: a slot is queued when its producer grows and it
    is not already queued.  Every activation delivers at least one new
    pair, so this is at most {!flow_in_count}. *)

val worklist_pops : t -> int
(** Lifetime worklist removals; equals [worklist_pushes] at fixpoint. *)

val ptset_stats : t -> Ptset.stats
(** Hash-consing work attributed to this solve ({!Ptset.delta} around
    the fixpoint loop): interned sets, meet-cache hits/misses, table
    bytes. *)

val callees : t -> Vdg.node_id -> string list
(** Resolved callees of a call node (defined functions only). *)

val callee_edges : t -> Vdg.node_id -> (string * int array option) list
(** Resolved callees with their formal-to-actual argument maps ([None] =
    identity); higher-order extern summaries produce non-identity maps. *)

val extern_callees : t -> Vdg.node_id -> string list
(** External functions this call may invoke. *)

val callers : t -> string -> Vdg.node_id list
(** Call nodes that may invoke the given defined function. *)

val referenced_locations : t -> Vdg.node_id -> Apath.t list
(** Distinct location referents arriving at the location input of a
    lookup/update node — the paper's "locations referenced/modified by an
    indirect memory operation" (Figure 4).  In canonical print-form
    order, independent of how the solution was computed. *)
