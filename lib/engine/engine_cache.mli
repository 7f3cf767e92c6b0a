(** Content-hash-keyed result cache with two layers:

    - an in-memory table (any value type), shared across the whole
      process and safe to use from parallel {!Par_runner} workers;
    - an optional on-disk layer keyed by the same digest, so a later
      {e process} (e.g. a second [alias-analyze tables] run) can skip
      re-solving unchanged sources.  Disk entries are Marshal payloads
      guarded by a format-version header; anything unreadable is treated
      as a miss, deleted from disk, and never an error.

    Keys are digests of (cache format version, source text, config
    fingerprint) — computed by the caller via {!key}. *)

type stats = {
  mutable memory_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable purged : int;
      (** stale/corrupt entries deleted on read, plus {!prune} victims *)
}

type 'v t

val create : ?dir:string -> unit -> 'v t
(** With [dir], entries are also persisted on disk (the directory is
    created if missing); without it the cache is memory-only. *)

val stats : 'v t -> stats

val key : source:string -> fingerprint:string -> string
(** Hex digest of (format version, config fingerprint, source text). *)

val find_memory : 'v t -> string -> 'v option
val add_memory : 'v t -> string -> 'v -> unit

val find_disk : 'v t -> string -> 'd option
(** The disk payload type is chosen by the caller and must match between
    {!store_disk} and {!find_disk} — the usual Marshal contract.  The
    version header catches cross-format reads.  A stale entry (different
    format version) and a damaged one (truncated header or failed
    unmarshal) both read as [None]; either way the entry is deleted from
    disk and counted in [stats.purged]. *)

val store_disk : 'v t -> string -> 'd -> unit
(** Atomic (write-to-temp, rename) and silent on I/O failure. *)

val record_miss : 'v t -> unit

val keys_on_disk : 'v t -> string list
(** The cache keys with a snapshot in the disk layer, sorted; [] for a
    memory-only cache.  The server logs this at startup — a restarted
    daemon warm-starts opens of these keys from disk instead of
    re-solving. *)

val prune : 'v t -> max_bytes:int -> int
(** Bound the disk layer: delete entries, least-recently-modified first,
    until the total size of the on-disk entries is at or below
    [max_bytes].  Returns the number of files deleted; 0 for a
    memory-only cache. *)

val stats_summary : 'v t -> string
val stats_json : 'v t -> (string * Ejson.t) list
