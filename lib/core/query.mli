(** Higher-level queries over a points-to solution.

    These are the question forms downstream compiler phases actually ask:
    may two operations touch the same storage (dependence testing), which
    operation pairs in a function conflict (reordering/parallelization),
    and which functions are memory-pure (call-site motion). *)

val paths_may_overlap : Apath.t list -> Apath.t list -> bool
(** Two target sets may denote common storage: some pair is related by
    the may-alias relation [dom] in either direction. *)

(** {1 The tier-agnostic view}

    Every solver tier answers the same two node-keyed questions: which
    points-to pairs sit on an output, and which locations a memory
    operation references.  A [node_view] packages one tier's answers so
    the questions below (and every downstream consumer: checkers, the
    server, figures) are written once instead of per solver. *)

type node_view = {
  nv_tier : string;  (** tier label as clients see it *)
  nv_graph : Vdg.t;
  nv_pairs : Vdg.node_id -> Ptpair.t list;
  nv_referenced : Vdg.node_id -> Apath.t list;
}

val ci_view : Ci_solver.t -> node_view
val cs_view : Ci_solver.t -> Cs_solver.t -> node_view
(** Assumption sets stripped; the CI solver supplies the graph. *)

val locations : node_view -> Vdg.node_id -> Apath.t list
(** The storage a node's output concerns: the referenced locations for
    lookup/update nodes, and the locations the value may denote for any
    other output (allocation sites, formals, address nodes, ...). *)

val alias : node_view -> Vdg.node_id -> Vdg.node_id -> bool
(** May the two nodes concern common storage?  Memory operations are
    compared by the locations they touch; value outputs (e.g. [Nalloc]
    or a pointer formal) by the locations they denote.  False when either
    side has no associated locations. *)

val locations_denoted : Ci_solver.t -> Vdg.node_id -> Apath.t list
(** [locations (ci_view ci)] — shorthand for the default tier. *)

val may_alias : Ci_solver.t -> Vdg.node_id -> Vdg.node_id -> bool
(** [alias (ci_view ci)] — shorthand for the default tier. *)

(** {1 Conflicts and purity} *)

type conflict = {
  cf_a : Modref.op;
  cf_b : Modref.op;
  cf_kind : [ `Write_write | `Read_write ];
  cf_common : Apath.t list;   (** witnesses of the overlap *)
}

val conflicts_in : Modref.t -> string -> conflict list
(** All pairs of indirect operations within one function that cannot be
    reordered: at least one writes, and their target sets may overlap.
    Each unordered pair is reported exactly once, oriented so that
    [cf_a.op_node <= cf_b.op_node], in that (node, node, kind) order. *)

type purity =
  | Pure                      (** no stores, no impure callees *)
  | Impure_writes             (** performs a memory write *)
  | Impure_calls of string    (** reaches an extern with unknown effects *)

val classify_purity : Vdg.t -> Ci_solver.t -> string -> purity
(** Transitive memory-purity of a defined function: [Pure] means neither
    it nor anything it can call performs an update or reaches an external
    function with possible side effects (a small allowlist of pure
    library functions is built in). *)

val pure_functions : Vdg.t -> Ci_solver.t -> string list
(** All defined functions classified [Pure], sorted. *)
