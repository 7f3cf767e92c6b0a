(** Canonical, order-independent digest of an analysis's CI and CS
    points-to solutions and lint verdicts.

    Every enumeration in the dump is sorted, so the digest depends only on
    the fixpoint reached — not on worklist scheduling, hash-table
    iteration order, or antichain insertion order.  The regression suite
    pins seed digests with it to prove that solver-performance work
    (hash-consing, memoized meets, return-propagation subscriptions)
    leaves the computed solutions byte-identical. *)

val dump : Engine.analysis -> string
(** The canonical textual dump: per node, sorted CI pairs and sorted
    CS qualified pairs (each with its sorted assumption-set chain),
    followed by sorted lint verdict lines from a [compare_cs] lint run. *)

val digest : Engine.analysis -> string
(** MD5 hex digest of {!dump}. *)

val ci_dump : Engine.analysis -> string
(** The CI-only canonical dump: per node, sorted CI pairs.  Unlike
    {!dump} it never forces the CS solve or a lint run, so it is cheap
    enough to compute on every exhaustive open — the server reports its
    digest as each session's [solution_digest]. *)

val ci_digest : Engine.analysis -> string
(** MD5 hex digest of {!ci_dump}. *)
