(** Points-to pairs and pair sets (paper, Section 2).

    A pair [(a, b)] on an output means: in the value produced by this
    output, indirecting through any location (or offset) denoted by [a]
    may return any location denoted by [b].  On store-typed outputs [a]
    is a location path; on value-typed outputs [a] is an offset (the
    empty offset for plain pointer values).

    The solvers store a pair as its packed {!key} and a pair set as one
    hash-consed {!Ptset.t} of keys; a pair record is only built when a
    reader asks for one.  Decoding a key needs the {!Apath.table} both
    paths were interned in (the graph's [tbl]). *)

type t = {
  path : Apath.t;
  referent : Apath.t;
}

val make : Apath.t -> Apath.t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val key : t -> int
(** Injective packing of the pair into one int:
    [(path.pid lsl 31) lor referent.pid].

    {b Invariant} (relied on by {!Set}, {!Cs_solver}'s entry tables, and
    {!Ptset} element packing): [Apath.t] handles within one table carry
    dense interned [pid]s strictly below [2^31] — equal paths have equal
    pids and distinct paths have distinct pids (interning enforces
    the bound).  The key is therefore an {e identity} for the pair, not
    a hash: two pairs over the same table have equal keys iff they are
    equal.  Do not substitute [Apath.hash] here — the key must remain
    collision-free even if the hash function ever changes. *)

val pack : Apath.t -> Apath.t -> int
(** [pack path referent = key (make path referent)], without building
    the pair. *)

val path_of_key : Apath.table -> int -> Apath.t
val referent_of_key : Apath.table -> int -> Apath.t
(** The two components of a key, decoded through {!Apath.of_pid}; no
    allocation. *)

val of_key : Apath.table -> int -> t

val hash : t -> int
(** Equals {!key} (collision-free, so it is also a perfect hash). *)

val to_string : t -> string

(** Immutable pair sets: a set {e is} its hash-consed {!Ptset.t} of
    {!key}s, so equal sets are the same handle (O(1) {!Ptset.equal}) and
    membership is a binary search.  Iteration runs in ascending key
    order, decoding through the table the pairs were interned in. *)
module Set : sig
  type pair = t
  type t = Ptset.t

  val mem : t -> pair -> bool
  val cardinal : t -> int

  val iter : Apath.table -> (pair -> unit) -> t -> unit
  val fold : Apath.table -> (pair -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : Apath.table -> t -> pair list
  (** In ascending {!key} order. *)
end
