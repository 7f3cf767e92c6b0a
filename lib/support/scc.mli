(** Strongly connected components of an integer digraph, with its
    condensation.

    Used by the incremental engine's caller/callee dependency graph.
    The Tarjan traversal is iterative (clients feed it call graphs whose
    depth can match the deepest call chain of a generated workload), and
    component ids are assigned in reverse topological order of the
    condensation: ascending id is already a successors-before-predecessors
    (bottom-up) order. *)

type t = {
  n_vertices : int;  (** vertex count of the input graph *)
  scc_of : int array;  (** vertex -> component id *)
  members : int list array;  (** component id -> member vertices *)
  succ : int list array;
      (** condensation successors (deduplicated, no self edges) *)
  pred : int list array;  (** condensation predecessors *)
  topo : int array;
      (** component ids, successors before predecessors; with Tarjan
          numbering this is just [0 .. n_components - 1], but clients
          should schedule off this array rather than re-deriving the
          invariant *)
}

val condense : n:int -> succ:int list array -> t
(** [condense ~n ~succ] computes the SCCs of the digraph on vertices
    [0 .. n-1] with successor lists [succ].  Raises [Invalid_argument]
    if [Array.length succ <> n].  Duplicate edges are tolerated. *)

val n_components : t -> int
