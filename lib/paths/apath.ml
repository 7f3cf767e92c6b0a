type base_kind =
  | Bvar of Sil.var
  | Bheap of int
  | Bstr of int
  | Bfun of string
  | Bext of string

type base = {
  bid : int;
  bkind : base_kind;
  bsingular : bool;
}

type accessor =
  | Field of string
  | Index

type t = {
  pid : int;
  proot : base option;
  paccs : accessor list;
  ptruncated : bool;
}

(* Structural keys for interning.  Bases are keyed by kind identity (vars by
   vid), paths by root id + accessors + truncation. *)
type base_key =
  | Kvar of int
  | Kheap of int
  | Kstr of int
  | Kfun of string
  | Kext of string

type table = {
  tid : int;  (* process-unique stamp, keys the domain-local caches *)
  bases : (base_key, base) Hashtbl.t;
  mutable nbases : int;
  paths : (int * accessor list * bool, t) Hashtbl.t;
  mutable npaths : int;
  mutable lock : Mutex.t option;
      (* [Some _] while the table is shared across domains (parallel
         solve): all interning then goes through the lock, fronted by a
         per-domain memo cache.  [None] keeps the sequential fast path
         lock-free. *)
}

let table_stamps = Atomic.make 0

let create_table () =
  {
    tid = Atomic.fetch_and_add table_stamps 1;
    bases = Hashtbl.create 256;
    nbases = 0;
    paths = Hashtbl.create 1024;
    npaths = 0;
    lock = None;
  }

let share tbl = if tbl.lock = None then tbl.lock <- Some (Mutex.create ())
let unshare tbl = tbl.lock <- None

(* Per-domain memo over a shared table.  Interned bases and paths are
   immutable once published, so a domain may cache any (key -> value)
   binding it has seen and serve repeat lookups without the lock; only
   genuine misses pay for mutual exclusion.  One cache per domain,
   re-pointed (and cleared) whenever the domain touches a different
   table. *)
type dls_cache = {
  mutable c_tid : int;
  c_bases : (base_key, base) Hashtbl.t;
  c_paths : (int * accessor list * bool, t) Hashtbl.t;
}

let cache_key =
  Domain.DLS.new_key (fun () ->
      { c_tid = -1; c_bases = Hashtbl.create 64; c_paths = Hashtbl.create 1024 })

let cache_for tbl =
  let c = Domain.DLS.get cache_key in
  if c.c_tid <> tbl.tid then begin
    Hashtbl.reset c.c_bases;
    Hashtbl.reset c.c_paths;
    c.c_tid <- tbl.tid
  end;
  c

let base_key = function
  | Bvar v -> Kvar v.Sil.vid
  | Bheap site -> Kheap site
  | Bstr idx -> Kstr idx
  | Bfun name -> Kfun name
  | Bext name -> Kext name

let mk_base_locked tbl key bkind ~singular =
  match Hashtbl.find_opt tbl.bases key with
  | Some b -> b
  | None ->
    let b = { bid = tbl.nbases; bkind; bsingular = singular } in
    tbl.nbases <- tbl.nbases + 1;
    Hashtbl.add tbl.bases key b;
    b

let mk_base tbl bkind ~singular =
  let key = base_key bkind in
  match tbl.lock with
  | None -> mk_base_locked tbl key bkind ~singular
  | Some m ->
    let c = cache_for tbl in
    (match Hashtbl.find_opt c.c_bases key with
    | Some b -> b
    | None ->
      let b = Mutex.protect m (fun () -> mk_base_locked tbl key bkind ~singular) in
      Hashtbl.add c.c_bases key b;
      b)

let base_count tbl = tbl.nbases
let path_count tbl = tbl.npaths

let max_depth = 8

(* Pids must stay below 2^31 so Ptpair.key can pack two of them into one
   63-bit int.  Unreachable in practice (a table holds thousands of
   paths, and paths are k-limited), but enforced so the packing can rely
   on it. *)
let max_paths = 1 lsl 31

let intern_locked tbl key root accs truncated =
  match Hashtbl.find_opt tbl.paths key with
  | Some p -> p
  | None ->
    if tbl.npaths >= max_paths then failwith "Apath: path table overflow (2^31 paths)";
    let p = { pid = tbl.npaths; proot = root; paccs = accs; ptruncated = truncated } in
    tbl.npaths <- tbl.npaths + 1;
    Hashtbl.add tbl.paths key p;
    p

let intern tbl root accs truncated =
  let root_id = match root with None -> -1 | Some b -> b.bid in
  let key = (root_id, accs, truncated) in
  match tbl.lock with
  | None -> intern_locked tbl key root accs truncated
  | Some m ->
    let c = cache_for tbl in
    (match Hashtbl.find_opt c.c_paths key with
    | Some p -> p
    | None ->
      let p = Mutex.protect m (fun () -> intern_locked tbl key root accs truncated) in
      Hashtbl.add c.c_paths key p;
      p)

let of_base tbl b = intern tbl (Some b) [] false

let empty_offset tbl = intern tbl None [] false

let dummy = { pid = -1; proot = None; paccs = []; ptruncated = false }

let limit accs =
  let rec take n = function
    | [] -> ([], false)
    | _ :: _ when n = 0 -> ([], true)
    | a :: rest ->
      let kept, cut = take (n - 1) rest in
      (a :: kept, cut)
  in
  take max_depth accs

let extend tbl p acc =
  if p.ptruncated then p  (* already a summary of all extensions *)
  else begin
    let accs, cut = limit (p.paccs @ [ acc ]) in
    intern tbl p.proot accs cut
  end

let append tbl a off =
  if off.proot <> None then invalid_arg "Apath.append: second argument must be an offset";
  if a.ptruncated then a
  else begin
    let accs, cut = limit (a.paccs @ off.paccs) in
    intern tbl a.proot accs (cut || off.ptruncated)
  end

let rec list_prefix pre l =
  match pre, l with
  | [], rest -> Some rest
  | a :: pre', b :: l' -> if a = b then list_prefix pre' l' else None
  | _ :: _, [] -> None

let same_root a b =
  match a.proot, b.proot with
  | None, None -> true
  | Some x, Some y -> x.bid = y.bid
  | _ -> false

let subtract tbl b a =
  if not (same_root a b) then None
  else
    match list_prefix a.paccs b.paccs with
    | Some rest when not a.ptruncated -> Some (intern tbl None rest b.ptruncated)
    | Some _ | None ->
      if a.ptruncated then
        (* [a] summarizes everything below its prefix: the remainder is
           unknown, so return a truncated empty offset *)
        (match list_prefix a.paccs b.paccs with
        | Some _ -> Some (intern tbl None [] true)
        | None -> None)
      else None

let is_offset p = p.proot = None
let is_location p = p.proot <> None

let dom a b =
  same_root a b
  && (match list_prefix a.paccs b.paccs with
     | Some _ -> true
     | None ->
       (* a truncated path stands for all its extensions *)
       (b.ptruncated && list_prefix b.paccs a.paccs <> None)
       || (a.ptruncated && list_prefix a.paccs b.paccs <> None))

let strongly_updateable p =
  (not p.ptruncated)
  && (match p.proot with Some b -> b.bsingular | None -> false)
  && List.for_all (function Field _ -> true | Index -> false) p.paccs

let strong_dom a b =
  strongly_updateable a && same_root a b && list_prefix a.paccs b.paccs <> None

let field_accessor comps kind tag fname =
  match kind with
  | Ctype.Union -> Field (Printf.sprintf "union %s" tag)
  | Ctype.Struct ->
    ignore comps;
    Field (Printf.sprintf "%s.%s" tag fname)

let base_to_string b =
  match b.bkind with
  | Bvar v ->
    (match v.Sil.vkind with
    | Sil.Global -> v.Sil.vname
    | Sil.Local f | Sil.Temp f -> Printf.sprintf "%s::%s" f v.Sil.vname
    | Sil.Param (f, _) -> Printf.sprintf "%s::%s" f v.Sil.vname)
  | Bheap site -> Printf.sprintf "heap@%d" site
  | Bstr idx -> Printf.sprintf "str#%d" idx
  | Bfun name -> Printf.sprintf "fun:%s" name
  | Bext name -> Printf.sprintf "ext:%s" name

let to_string p =
  let root = match p.proot with None -> "<offset>" | Some b -> base_to_string b in
  let accs =
    String.concat ""
      (List.map (function Field f -> "." ^ f | Index -> "[*]") p.paccs)
  in
  root ^ accs ^ if p.ptruncated then "..." else ""

let equal a b = a.pid = b.pid
let compare a b = Int.compare a.pid b.pid
let hash p = p.pid
