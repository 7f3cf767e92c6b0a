(* Content-hash-keyed on-disk result cache, so a later *process* (e.g. a
   second `alias-analyze tables` run, or a restarted server) can skip
   re-solving unchanged sources.  Entries are Marshal payloads guarded by
   a format-version header; anything unreadable is treated as a miss,
   never an error.  There is no in-memory layer: whoever keeps solved
   programs alive (the server's session working set) holds them itself.

   Keys are digests of (cache format version, source text, config
   fingerprint) — computed by the caller via [key]. *)

type stats = {
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable purged : int;  (* other-format/corrupt entries deleted, + prune victims *)
}

(* [lock] guards the counters only: Par_runner workers share one cache *)
type t = { dir : string; lock : Mutex.t; st : stats }

(* bump when the marshaled payload shape or any solver data structure
   changes; stale files then miss, and [create] deletes them *)
(* /2: Telemetry.t gained the per-checker stats field, which changes the
   Marshal layout of stored payloads. *)
(* /3: Telemetry.t gained tier/degradation/budget fields for the
   resource-governance ladder. *)
(* /4: hash-consed points-to sets — Ptpair.Set, Assumption.t and the CS
   entry tables changed their marshaled shapes, and solver_counters
   gained the meet-cache fields. *)
(* /5: Engine.stored carries per-procedure summary digests for
   incremental re-analysis, and Telemetry.t gained the incr counters
   field. *)
(* /6: Ci_solver's call tables carry resolved call/function metadata and
   its worklist lost the pending-membership table. *)
(* /7: Telemetry.t lost the demand-tier counter field. *)
(* /8: Telemetry.cache_status lost its memory-hit constant, which
   renumbers the Disk_hit constant a stored telemetry record can carry. *)
(* /9: the counter field of Telemetry.t's reachability tier became a
   solver_counters record, and its incr field holds Incr_engine.stats. *)
(* /10: Telemetry.t lost its sharded-solve counter field. *)
(* /11: Ci_solver.t keeps one hash-consed set per node (no insertion-order
   pair list) and no worklist; Ptpair.Set.t is a Ptset.t; Apath.table
   gained its pid array. *)
(* /12: Telemetry.t lost the reachability tier's counter field with the
   tier itself. *)
(* /13: Cs_solver.t holds flat per-slot arrays (antichains as member
   lists, first-arrival links) instead of per-node entry tables, and its
   config lost the max_meets fuel. *)
let format_version = "alias-engine-cache/13"

let header_ok path =
  match
    In_channel.with_open_bin path (fun ic ->
        In_channel.really_input_string ic (String.length format_version))
  with
  | Some header -> header = format_version
  | None -> false
  | exception Sys_error _ -> true  (* unreadable now: leave it to find_disk *)

let create dir =
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t =
    {
      dir;
      lock = Mutex.create ();
      st = { disk_hits = 0; misses = 0; stores = 0; purged = 0 };
    }
  in
  (* The format version is part of every key, so no lookup of this build
     ever opens an older build's entry: reclaim them here, or they stay
     on disk for good. *)
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Filename.check_suffix f ".bin" && not (header_ok path) then
          match Sys.remove path with
          | () -> t.st.purged <- t.st.purged + 1
          | exception Sys_error _ -> ())
      names);
  t

let stats t = t.st

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let key ~source ~fingerprint =
  Digest.to_hex (Digest.string (format_version ^ "\x00" ^ fingerprint ^ "\x00" ^ source))

let entry_path t k = Filename.concat t.dir (k ^ ".bin")

(* The payload type is chosen by the caller and must match between store
   and find — the usual Marshal contract.  The version header catches
   cross-format reads; within one build the caller guarantees the type.
   A stale entry (another format version) and a damaged one (truncated
   header, failed unmarshal) both read as a miss and are purged. *)
let find_disk (type d) t k : d option =
  let path = entry_path t k in
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let header = really_input_string ic (String.length format_version) in
          if header <> format_version then None
          else Some (Marshal.from_channel ic : d))
    with
    | Some v ->
      locked t (fun () -> t.st.disk_hits <- t.st.disk_hits + 1);
      Some v
    | None | (exception _) ->
      (* stale format or corrupt payload: reclaim the disk space now,
         rather than re-reading and skipping the entry forever *)
      (try
         Sys.remove path;
         locked t (fun () -> t.st.purged <- t.st.purged + 1)
       with Sys_error _ -> ());
      None

let store_disk (type d) t k (v : d) =
  let path = entry_path t k in
  try
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc format_version;
        Marshal.to_channel oc v []);
    Sys.rename tmp path;
    locked t (fun () -> t.st.stores <- t.st.stores + 1)
  with Sys_error _ | Unix.Unix_error _ -> ()

let record_miss t = locked t (fun () -> t.st.misses <- t.st.misses + 1)

(* The cache keys with a snapshot on disk, for the server's startup
   report: a restarted daemon answers opens of these from the disk layer
   without a solve (a warm start).  Purely observational — nothing is
   read or validated here; [create] has already purged other formats'
   entries, and a damaged one still shows up until its first read purges
   it. *)
let keys_on_disk t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".bin" then
             Some (Filename.chop_suffix f ".bin")
           else None)
    |> List.sort compare

(* Bound the disk layer: delete entries, least-recently-modified first,
   until the total size of the *.bin files is at or below [max_bytes].
   Returns the number of files deleted.  The server's session manager
   calls this after each store to keep a long-lived daemon's cache
   directory within its configured budget. *)
let prune t ~max_bytes =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | names ->
    let entries =
      Array.to_list names
      |> List.filter (fun f -> Filename.check_suffix f ".bin")
      |> List.filter_map (fun f ->
             let path = Filename.concat t.dir f in
             match Unix.stat path with
             | st -> Some (path, st.Unix.st_mtime, st.Unix.st_size)
             | exception Unix.Unix_error _ -> None)
    in
    let total = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries in
    if total <= max_bytes then 0
    else begin
      let by_age =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) entries
      in
      let deleted = ref 0 and remaining = ref total in
      List.iter
        (fun (path, _, sz) ->
          if !remaining > max_bytes then
            match Sys.remove path with
            | () ->
              incr deleted;
              remaining := !remaining - sz
            | exception Sys_error _ -> ())
        by_age;
      if !deleted > 0 then
        locked t (fun () -> t.st.purged <- t.st.purged + !deleted);
      !deleted
    end

let stats_summary t =
  Printf.sprintf
    "%d disk hit(s), %d miss(es), %d store(s), %d purged"
    t.st.disk_hits t.st.misses t.st.stores t.st.purged

let stats_json t =
  [
    ("cache_stats_disk_hits", Ejson.Int t.st.disk_hits);
    ("cache_stats_misses", Ejson.Int t.st.misses);
    ("cache_stats_stores", Ejson.Int t.st.stores);
    ("cache_stats_purged", Ejson.Int t.st.purged);
  ]
