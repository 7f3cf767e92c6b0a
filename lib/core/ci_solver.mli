(** The context-insensitive points-to analysis (paper, Section 3, Figure 1).

    A points-to pair set is maintained on every node output.  Pairs are
    grown incrementally with a worklist: whenever a pair is added to an
    output, all consumers of that output are notified and make the
    appropriate additions to their own outputs.  Calls and returns are
    handled like jumps: all information at a call's actuals propagates to
    all (discovered) callees, and all information at a procedure's returns
    propagates to all of its call sites.  Update nodes implicitly realize
    the dual-worklist strategy of Chase et al.: store-input pairs are
    blocked until a location pair arrives and are reprocessed as further
    location pairs arrive.

    The solver also maintains the dynamically discovered call graph
    (needed for indirect calls and for the paper's Section 5.1.2
    statistics) and counts transfer-function ([flow_in]) and meet
    ([flow_out]) applications, the cost metrics of Section 4.2. *)

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
    and the partial solver state is discarded by the caller. *)

val solve_warm :
  ?config:config ->
  ?budget:Budget.t ->
  Vdg.t ->
  frozen:bool array ->
  preset:(Vdg.node_id * Ptpair.t list) list ->
  calls:(Vdg.node_id * (string * int array option) list) list ->
  ext_calls:(Vdg.node_id * string list) list ->
  t * Vdg.node_id list
(** Region-restricted re-solve for {!Incr_engine}: nodes with
    [frozen.(nid)] keep their [preset] pairs (installed without consumer
    notification) and [calls]/[ext_calls] preset their discovered call
    edges without repropagation; only the un-frozen region iterates to
    fixpoint, with boundary flows injected from the frozen facts.  The
    second component lists frozen nodes whose pair sets {e grew} during
    the solve — a non-empty list means the freeze was unsound for those
    nodes' procedures and the caller must re-run with them dirtied.
    Shrinkage is invisible to a monotone solver; the caller compares
    interface summaries against the previous solution instead. *)

val graph : t -> Vdg.t
val pairs : t -> Vdg.node_id -> Ptpair.Set.t
(** Points-to pairs on an output (empty set if none were derived). *)

val flow_in_count : t -> int
val flow_out_count : t -> int

val worklist_pushes : t -> int
(** Lifetime worklist additions, one per (consumer, input, pair)
    notification.  A push only follows the first insertion of a pair at
    its producer, and each (consumer, input) has exactly one producer, so
    on a cold solve this is exactly [Σ_o |pairs o| × |consumers o|]
    (test_ptset checks the equality); no item is ever queued twice. *)

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
    order, independent of how (and at what [jobs] width) the solution
    was computed. *)

(** {2 Parallel-solver internals}

    Everything below exists for {!Par_solver} and the tests; ordinary
    clients never need it.  A sharded solve runs one solver state per
    domain over a {e shared} [pts] array: a slot is mutated only by the
    shard whose [owns] predicate claims its node, and flows that land on
    foreign nodes are emitted as {!remote_event}s for the owning shard
    to apply.  Foreign slots may still be read (iteration snapshots the
    immutable item list); a stale read is repaired by the owner's
    subsequent consumer notification, exactly like a late worklist
    arrival in the sequential algorithm. *)

type remote_event =
  | Rflow_out of Vdg.node_id * Ptpair.t
      (** a fact for a foreign output (meet happens at its owner) *)
  | Rflow_in of Vdg.node_id * int * Ptpair.t
      (** a worklist notification for a foreign consumer *)
  | Rnew_caller of string * Vdg.node_id
      (** register a call site with a foreign callee's owner (which then
          performs the authoritative return-fact back-flow) *)

module Internal : sig
  val mk :
    ?config:config ->
    ?pts:Ptpair.Set.t array ->
    owns:(Vdg.node_id -> bool) ->
    emit:(remote_event -> unit) ->
    Vdg.t ->
    t
  (** A shard state.  [pts] is the shared per-node array (fresh when
      omitted); the state runs on an unlimited budget. *)

  val flow_out : t -> Vdg.node_id -> Ptpair.t -> unit
  val enqueue : t -> Vdg.node_id -> int -> Ptpair.t -> unit
  val register_caller : t -> string -> Vdg.node_id -> unit
  val seed_nodes : t -> Vdg.node_id list -> unit
  val seed_entry : t -> unit

  val step : t -> bool
  (** Process one worklist item; [false] when the local worklist is
      empty. *)

  val has_local_work : t -> bool
  val raw_pushes : t -> int
  val raw_pops : t -> int
  val call_entries : t -> (Vdg.node_id * (string * int array option) list) list
  val caller_entries : t -> (string * Vdg.node_id list) list
  val ext_entries : t -> (Vdg.node_id * string list) list

  val assemble :
    ?config:config ->
    Vdg.t ->
    pts:Ptpair.Set.t array ->
    calls:(Vdg.node_id * (string * int array option) list) list ->
    callers:(string * Vdg.node_id list) list ->
    ext_calls:(Vdg.node_id * string list) list ->
    flow_in_count:int ->
    flow_out_count:int ->
    pushes:int ->
    pops:int ->
    ptset_stats:Ptset.stats ->
    t
  (** A finished solution from merged shard data; [pts] slots must be
      canonical sets interned in the calling domain's universe. *)
end
