(** Hash-consed sets of small non-negative integers.

    The solvers spend most of their time on meets over points-to pairs
    and assumption ids, both of which are dense ints (a points-to pair
    packs its two {!Apath.t} pids into one int via {!Ptpair.key}).  This
    module interns each distinct sorted element array in a per-domain
    table and hands out an immutable handle carrying a dense set id, so

    - set equality and worklist change-detection are O(1) id compares;
    - [union]/[subset]/[add] are memoized by packed [(id, id)] keys in a
      bounded two-generation (LRU-approximating) cache, so the repeated
      meets the context-sensitive solver performs (the paper's dominant
      cost, Section 4.2) collapse into table lookups.

    {2 Universes and invariants}

    The intern table and memo caches form a {e universe}.  A universe is
    domain-local ([Domain.DLS]): each domain interns independently, so
    parallel solves ({!Par_runner}, [bench -j], the query server) never
    contend or race.  Two invariants follow:

    - {b Never mix handles from different universes in one id-based
      operation.}  Within one solve this holds by construction (a solve
      runs on one domain).  Set ids are meaningful only relative to the
      universe that created them.
    - {b Handles that crossed a universe boundary are read-only.}  A
      value that was [Marshal]ed to the disk cache and read back (or
      solved on another domain and shared via the memory cache) has ids
      from a universe that no longer exists.  Structural operations
      ([mem], [elements], [iter], [fold], [cardinal], [is_empty]) remain
      correct on such handles, and [equal]/[subset]/[union] between two
      handles from the {e same} snapshot are also consistent — but
      creating ops ([add], [singleton], [of_list]) and memoized ops
      against fresh sets must not be applied to them.  The engine
      respects this: solved {!Ci_solver.t}/{!Cs_solver.t} values are
      only inspected, never grown, after a cache hit.

    Ids are capped below [2^31] so a pair of ids packs into one OCaml
    int on 64-bit platforms; exceeding the cap raises [Failure] (a
    single solve would need two billion distinct sets first). *)

type t = private {
  id : int;           (** dense id within the creating universe *)
  elems : int array;  (** strictly increasing elements *)
}

val empty : t
(** The empty set; id 0 in every universe. *)

val singleton : int -> t
val of_list : int list -> t
(** Sorts and dedups. *)

val id : t -> int
val equal : t -> t -> bool
(** O(1): id comparison (same-universe handles only, see above). *)

val is_empty : t -> bool
val cardinal : t -> int
val mem : t -> int -> bool
(** Binary search; structural, safe on any handle. *)

val add : t -> int -> t
(** Returns [s] itself (physically) when the element is present. *)

val add_many : t -> int array -> int -> t
(** [add_many s keys n]: [s] plus the first [n] elements of [keys]
    (unsorted, duplicates allowed; [keys] is not modified).  Interns one
    set for the whole batch, not one per element, and returns [s] itself
    when nothing is new.  Not memoized. *)

val union : t -> t -> t
val subset : t -> t -> bool
val elements : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val iter_diff : (int -> unit) -> t -> t -> unit
(** [iter_diff f s old] applies [f] to the elements of [s] that are not
    in [old], in increasing order: one merge walk, nothing allocated.
    Structural, safe on any handle. *)

(** {2 Instrumentation}

    Counters for the current domain's universe, cumulative since domain
    start.  [stats] is cheap; callers snapshot around a solve and
    {!delta} the two to attribute work to it. *)

type stats = {
  st_sets : int;           (** interned sets (including [empty]) *)
  st_live_bytes : int;     (** approximate bytes held by interned arrays *)
  st_peak_bytes : int;     (** high-water mark of [st_live_bytes] *)
  st_cache_hits : int;     (** memo-cache hits across union/subset/add *)
  st_cache_misses : int;   (** memo-cache misses (op actually executed) *)
  st_cache_rotations : int;(** generations discarded by the bounded cache *)
}

val stats : unit -> stats

val delta : before:stats -> after:stats -> stats
(** Counter fields are subtracted; [st_live_bytes]/[st_peak_bytes] keep
    the [after] (absolute) values, since memory is not attributable to a
    window. *)
