(** Assumption sets for the context-sensitive analysis (paper, Section 4.1).

    An assumption [(f, p)] states that points-to pair [p] holds on formal
    parameter output [f] on entry to the enclosing procedure.  A qualified
    points-to pair carries a set of assumptions; the pair holds on its
    output only under calling contexts satisfying all of them.

    Assumptions are interned to dense ids, in first-intern order, inside
    a {!ctx} (keyed by an int identity the caller gives each (formal
    node, pair)); sets are hash-consed {!Ptset.t} values over those
    ids, so the unions and subset tests the CS solver performs per meet
    are memoized and equality is an O(1) id compare.  Per-(output,
    pair) collections are kept as antichains under inclusion,
    implementing the paper's subsumption rule: a pair already holding
    under [A] need not be recorded under any [B ⊇ A]. *)

type ctx

type t = Ptset.t
(** A set of assumption ids (hash-consed; see {!Ptset} for the
    same-universe and read-only-after-marshal invariants). *)

val create_ctx : unit -> ctx

val intern : ctx -> key:int -> Vdg.node_id -> Ptpair.t -> int
(** Id of the assumption "[pair] holds on formal output [node]".  [key]
    is the caller's int identity for the (node, pair) within [ctx]:
    equal for equal assumptions, distinct otherwise ({!Cs_solver} passes
    the entry's slot). *)

val describe : ctx -> int -> Vdg.node_id * Ptpair.t

val count : ctx -> int

val empty : t
val singleton : ctx -> key:int -> Vdg.node_id -> Ptpair.t -> t
val union : t -> t -> t
val subset : t -> t -> bool
val cardinal : t -> int
val is_empty : t -> bool

val equal : t -> t -> bool
(** O(1) on same-universe handles. *)

val elements : t -> int list
(** Strictly increasing assumption ids. *)

val to_string : ctx -> t -> string

(** Antichains of assumption sets under inclusion. *)
module Antichain : sig
  type set = t

  type t = set list
  (** An antichain is its member list, newest first; [[]] is empty. *)

  val insert : t -> set -> t option
  (** [insert ac s]: [None] if some member is a subset of [s] (an exact
      duplicate included); otherwise [Some] of [s] followed by the
      members that are not supersets of [s]. *)

  val mem : t -> set -> bool
  (** Is [s] currently a member?  False once a weaker set has evicted it
      — the CS solver uses this to drop worklist entries whose
      originating member is gone.  A scan of [O(members)] id compares;
      almost every antichain the solver builds has one member. *)
end
