(** Base-locations and access paths (paper, Section 2).

    A finite number of base-locations name allocation sites: one per
    variable, one per static heap-allocation site, one per string literal,
    and one per function.  An access path is an optional base-location
    followed by a sequence of access operators (structure/union member or
    array element).  Paths with a base-location denote storage
    ("locations"); paths without one denote relative addressing into
    aggregate values ("offsets").

    Careful interning ensures a path is aliased only to its prefixes: all
    members of a union intern to a single accessor, and all elements of an
    array intern to a single [Index] accessor, which is exactly the
    paper's static-aliasing model for C.

    Paths are hash-consed inside a {!table}; handles are dense ints so the
    solvers compare and hash them in O(1).  Accessor chains are k-limited
    (depth {!max_depth}); a path that would exceed the bound is truncated
    and marked, truncated paths alias all their extensions and are never
    strongly updateable — a sound summarization. *)

type base_kind =
  | Bvar of Sil.var          (** a program variable (global, local, formal) *)
  | Bheap of int             (** heap allocation site, by site id *)
  | Bstr of int              (** string literal storage, by pool index *)
  | Bfun of string           (** a function *)
  | Bext of string           (** storage owned by an external library (e.g. a FILE) *)

type base = {
  bid : int;                 (** dense id within the table *)
  bkind : base_kind;
  bsingular : bool;          (** models exactly one runtime location *)
}

type accessor =
  | Field of string          (** interned member name; unions share one *)
  | Index                    (** any array element *)

type t = private {
  pid : int;                 (** dense id within the table *)
  proot : base option;       (** [None] for offsets *)
  paccs : accessor list;
  ptruncated : bool;
}

type table

val create_table : unit -> table

val share : table -> unit
(** Switch the table into cross-domain mode: subsequent interning
    ({!mk_base}, {!intern}-backed operations such as {!extend},
    {!append}, {!subtract}, {!of_base}, {!empty_offset}) is serialized
    behind a mutex, fronted by a per-domain memo cache so repeat lookups
    stay lock-free.  Interned values are immutable, so handles obtained
    by any domain remain valid everywhere.  Must be called before other
    domains touch the table; idempotent. *)

val unshare : table -> unit
(** Drop back to the lock-free single-domain fast path.  Only safe once
    no other domain can touch the table (the parallel solver calls this
    after joining its workers). *)

val mk_base : table -> base_kind -> singular:bool -> base
(** Interned: the same kind yields the same base. *)

val base_count : table -> int
val path_count : table -> int

val max_depth : int
(** Accessor-chain k-limit (8). *)

val of_base : table -> base -> t
(** The location path consisting of just the base. *)

val empty_offset : table -> t
(** The empty offset (relative address of the whole value). *)

val dummy : t
(** A path of no table (pid [-1]), to fill unused container slots; never
    pass it to a table operation. *)

val extend : table -> t -> accessor -> t
(** Append one accessor (k-limited). *)

val append : table -> t -> t -> t
(** [append tbl a off]: concatenate; [off] must be an offset.
    Raises [Invalid_argument] otherwise. *)

val subtract : table -> t -> t -> t option
(** [subtract tbl b a]: the offset [o] with [append a o = b], when [a] is
    a prefix of [b] with the same root.  [None] otherwise. *)

val is_offset : t -> bool
val is_location : t -> bool

val dom : t -> t -> bool
(** [dom a b]: a read (write) of [a] may observe (modify) a value written
    to [b] — true when [a] is a prefix of [b], extended to truncated
    summaries in both directions. *)

val strong_dom : t -> t -> bool
(** [strong_dom a b]: a write of [a] must overwrite [b] — [a] is strongly
    updateable (singular base, no array accessors, not truncated) and a
    prefix of [b]. *)

val strongly_updateable : t -> bool

val field_accessor : (string, Ctype.compinfo) Hashtbl.t -> Ctype.comp_kind -> string -> string -> accessor
(** [field_accessor comps kind tag fname]: the interned accessor for a
    member access, collapsing all members of a union onto one accessor. *)

val to_string : t -> string
val base_to_string : base -> string

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Currently the [pid] itself.  Clients that need a {e collision-free}
    identity (set membership keys, packed pair keys) must read [pid]
    directly rather than call [hash] — see {!Ptpair.key}.  The interning
    table keeps pids dense and strictly below [2^31] precisely so two of
    them pack into one 63-bit int. *)
