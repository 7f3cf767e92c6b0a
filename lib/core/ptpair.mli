(** Points-to pairs and pair sets (paper, Section 2).

    A pair [(a, b)] on an output means: in the value produced by this
    output, indirecting through any location (or offset) denoted by [a]
    may return any location denoted by [b].  On store-typed outputs [a]
    is a location path; on value-typed outputs [a] is an offset (the
    empty offset for plain pointer values). *)

type t = {
  path : Apath.t;
  referent : Apath.t;
}

val make : Apath.t -> Apath.t -> t

val dummy : t
(** Built from {!Apath.dummy}; fills unused worklist slots. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val key : t -> int
(** Injective packing of the pair into one int:
    [(path.pid lsl 31) lor referent.pid].

    {b Invariant} (relied on by {!Set}, {!Cs_solver}'s entry tables, and
    {!Ptset} element packing): [Apath.t] handles within one table carry
    dense interned [pid]s strictly below [2^31] — equal paths have equal
    pids and distinct paths have distinct pids ([Apath.mk_path] enforces
    the bound).  The key is therefore an {e identity} for the pair, not
    a hash: two pairs over the same table have equal keys iff they are
    equal.  Do not substitute [Apath.hash] here — the key must remain
    collision-free even if the hash function ever changes. *)

val hash : t -> int
(** Equals {!key} (collision-free, so it is also a perfect hash). *)

val to_string : t -> string

(** Mutable pair sets, used per output by the solvers.

    Backed by a hash-consed {!Ptset.t} over {!key}-packed ints (binary
    search membership, O(log n); O(1) change detection by comparing
    versions) plus an insertion-order item list — [elements] order is the
    solvers' deterministic iteration order. *)
module Set : sig
  type pair = t
  type t

  val create : unit -> t

  val of_pairs : pair list -> t
  (** Bulk construction (one sort and one intern; input may be unsorted
      and carry duplicates).  Iteration order is ascending {!key}.  Used
      by the parallel solver to re-intern merged shard results into the
      calling domain's universe. *)

  val mem : t -> pair -> bool
  val add : t -> pair -> bool
  (** [add s p] inserts and returns [true] iff [p] was new. *)

  val cardinal : t -> int

  val version : t -> Ptset.t
  (** The current hash-consed snapshot of the packed-key set: equal
      versions (O(1), {!Ptset.equal}) imply equal sets.  Same-universe
      caveats of {!Ptset} apply. *)

  val iter : (pair -> unit) -> t -> unit
  val fold : (pair -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : t -> pair list
  (** In insertion order (deterministic). *)
end
