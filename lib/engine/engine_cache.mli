(** Content-hash-keyed on-disk result cache, so a later {e process}
    (e.g. a second [alias-analyze tables] run, or a restarted server)
    can skip re-solving unchanged sources.  Entries are Marshal payloads
    guarded by a format-version header; anything unreadable is treated
    as a miss, deleted from disk, and never an error.  Safe to share
    across parallel {!Par_runner} workers.

    There is no in-memory layer: a process that keeps solved programs
    alive (the server's session working set) holds them itself.

    Keys are digests of (cache format version, source text, config
    fingerprint) — computed by the caller via {!key}. *)

type stats = {
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable purged : int;
      (** other-format entries deleted by {!create}, stale/corrupt
          entries deleted on read, plus {!prune} victims *)
}

type t

val create : string -> t
(** A cache persisted under the given directory, created if missing.
    Every entry there whose header is not this build's format version is
    deleted and counted in [stats.purged]: the version is part of every
    key, so no lookup would ever reach it. *)

val stats : t -> stats

val key : source:string -> fingerprint:string -> string
(** Hex digest of (format version, config fingerprint, source text). *)

val find_disk : t -> string -> 'd option
(** The disk payload type is chosen by the caller and must match between
    {!store_disk} and {!find_disk} — the usual Marshal contract.  The
    version header catches cross-format reads.  A stale entry (different
    format version) and a damaged one (truncated header or failed
    unmarshal) both read as [None]; either way the entry is deleted from
    disk and counted in [stats.purged]. *)

val store_disk : t -> string -> 'd -> unit
(** Atomic (write-to-temp, rename) and silent on I/O failure. *)

val record_miss : t -> unit

val keys_on_disk : t -> string list
(** The cache keys with a snapshot on disk, sorted.  The server logs
    this at startup — a restarted daemon warm-starts opens of these keys
    from disk instead of re-solving. *)

val prune : t -> max_bytes:int -> int
(** Bound the disk layer: delete entries, least-recently-modified first,
    until the total size of the on-disk entries is at or below
    [max_bytes].  Returns the number of files deleted. *)

val stats_summary : t -> string
val stats_json : t -> (string * Ejson.t) list
