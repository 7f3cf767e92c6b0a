type t = {
  id : int;
  elems : int array;
}

let empty = { id = 0; elems = [||] }

(* Ids must pack two-per-int: see [pack] below. *)
let max_sets = 1 lsl 31

(* Two-generation bounded memo cache: inserts go to [cur]; when [cur]
   fills, [old] is dropped wholesale and [cur] becomes [old].  Entries
   touched recently (in [cur], or promoted back from [old] on a hit)
   survive a rotation — an LRU approximation with O(1) maintenance. *)
type 'v cache = {
  limit : int;
  mutable cur : (int, 'v) Hashtbl.t;
  mutable old : (int, 'v) Hashtbl.t;
}

type universe = {
  intern_tbl : (int, t list ref) Hashtbl.t;  (* content hash -> sets *)
  mutable count : int;                        (* next id *)
  singles : (int, t) Hashtbl.t;               (* element -> singleton *)
  u_cache : t cache;                          (* union memo *)
  s_cache : bool cache;                       (* subset memo *)
  mutable hits : int;
  mutable misses : int;
  mutable rotations : int;
  mutable live_words : int;
  mutable peak_words : int;
}

let cache_limit = 1 lsl 16

let mk_cache () =
  { limit = cache_limit; cur = Hashtbl.create 1024; old = Hashtbl.create 1 }

let create_universe () =
  {
    intern_tbl = Hashtbl.create 4096;
    count = 1;  (* id 0 is [empty] *)
    singles = Hashtbl.create 1024;
    u_cache = mk_cache ();
    s_cache = mk_cache ();
    hits = 0;
    misses = 0;
    rotations = 0;
    live_words = 0;
    peak_words = 0;
  }

let universe_key = Domain.DLS.new_key create_universe
let univ () = Domain.DLS.get universe_key

(* ---- memo cache ------------------------------------------------------------- *)

let cache_find u c k =
  match Hashtbl.find_opt c.cur k with
  | Some _ as r ->
    u.hits <- u.hits + 1;
    r
  | None ->
    (match Hashtbl.find_opt c.old k with
    | Some v ->
      u.hits <- u.hits + 1;
      Hashtbl.replace c.cur k v;  (* promote so it survives the next rotation *)
      Some v
    | None ->
      u.misses <- u.misses + 1;
      None)

let cache_add u c k v =
  if Hashtbl.length c.cur >= c.limit then begin
    c.old <- c.cur;
    c.cur <- Hashtbl.create (c.limit / 8);
    u.rotations <- u.rotations + 1
  end;
  Hashtbl.replace c.cur k v

(* ---- interning --------------------------------------------------------------- *)

let hash_elems (a : int array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := ((!h * 0x1000193) + Array.unsafe_get a i) land max_int
  done;
  !h

let same_elems (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
  go 0

(* words attributed per interned set: the element array plus the handle
   record and amortized table overhead *)
let overhead_words = 8

let register u elems =
  if u.count >= max_sets then failwith "Ptset: universe overflow (2^31 sets)";
  let s = { id = u.count; elems } in
  u.count <- u.count + 1;
  u.live_words <- u.live_words + Array.length elems + overhead_words;
  if u.live_words > u.peak_words then u.peak_words <- u.live_words;
  s

let intern u (elems : int array) =
  if Array.length elems = 0 then empty
  else begin
    let h = hash_elems elems in
    match Hashtbl.find_opt u.intern_tbl h with
    | Some cell ->
      (match List.find_opt (fun s -> same_elems s.elems elems) !cell with
      | Some s -> s
      | None ->
        let s = register u elems in
        cell := s :: !cell;
        s)
    | None ->
      let s = register u elems in
      Hashtbl.add u.intern_tbl h (ref [ s ]);
      s
  end

(* ---- construction ------------------------------------------------------------ *)

let singleton e =
  if e < 0 then invalid_arg "Ptset.singleton: negative element";
  let u = univ () in
  match Hashtbl.find_opt u.singles e with
  | Some s -> s
  | None ->
    let s = intern u [| e |] in
    Hashtbl.add u.singles e s;
    s

let of_list l =
  match l with
  | [] -> empty
  | [ e ] -> singleton e
  | _ ->
    List.iter (fun e -> if e < 0 then invalid_arg "Ptset.of_list: negative element") l;
    intern (univ ()) (Array.of_list (List.sort_uniq compare l))

(* ---- queries ------------------------------------------------------------------ *)

let id s = s.id
let equal a b = a.id = b.id
let is_empty s = Array.length s.elems = 0
let cardinal s = Array.length s.elems

let mem s e =
  let a = s.elems in
  let lo = ref 0 and hi = ref (Array.length a) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v = e then found := true else if v < e then lo := mid + 1 else hi := mid
  done;
  !found

let elements s = Array.to_list s.elems
let iter f s = Array.iter f s.elems

(* one merge walk over both sorted arrays *)
let iter_diff f s old =
  let b = old.elems in
  if Array.length b = 0 then Array.iter f s.elems
  else begin
    let nb = Array.length b in
    let j = ref 0 in
    Array.iter
      (fun x ->
        while !j < nb && Array.unsafe_get b !j < x do
          incr j
        done;
        if !j < nb && Array.unsafe_get b !j = x then incr j else f x)
      s.elems
  end
let fold f s init = Array.fold_left (fun acc e -> f e acc) init s.elems

(* ---- memoized meets ------------------------------------------------------------ *)

let pack a b = (a lsl 31) lor b

let subset_scan (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb || nb - j < na - i then false
    else begin
      let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
      if x = y then go (i + 1) (j + 1) else if x > y then go i (j + 1) else false
    end
  in
  go 0 0

let merge_elems (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i >= na then begin
      Array.blit b j out k (nb - j);
      k + nb - j
    end
    else if j >= nb then begin
      Array.blit a i out k (na - i);
      k + na - i
    end
    else begin
      let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
      if x = y then begin
        Array.unsafe_set out k x;
        go (i + 1) (j + 1) (k + 1)
      end
      else if x < y then begin
        Array.unsafe_set out k x;
        go (i + 1) j (k + 1)
      end
      else begin
        Array.unsafe_set out k y;
        go i (j + 1) (k + 1)
      end
    end
  in
  let n = go 0 0 0 in
  if n = na + nb then out else Array.sub out 0 n

let union s1 s2 =
  if s1.id = s2.id || s2.id = 0 then s1
  else if s1.id = 0 then s2
  else begin
    (* commutative: normalize the key so (a,b) and (b,a) share a slot *)
    let a, b = if s1.id <= s2.id then (s1, s2) else (s2, s1) in
    let u = univ () in
    let k = pack a.id b.id in
    match cache_find u u.u_cache k with
    | Some r -> r
    | None ->
      let r =
        if subset_scan a.elems b.elems then b
        else if subset_scan b.elems a.elems then a
        else intern u (merge_elems a.elems b.elems)
      in
      cache_add u u.u_cache k r;
      r
  end

let subset s1 s2 =
  s1.id = s2.id || s1.id = 0
  || (Array.length s1.elems <= Array.length s2.elems
     &&
     let u = univ () in
     let k = pack s1.id s2.id in
     match cache_find u u.s_cache k with
     | Some r -> r
     | None ->
       let r = subset_scan s1.elems s2.elems in
       cache_add u u.s_cache k r;
       r)

let add s e = if mem s e then s else union s (singleton e)

let add_many s (keys : int array) n =
  (* merge the new elements in once: no intermediate set is interned *)
  let fresh = ref [] in
  for i = n - 1 downto 0 do
    let e = keys.(i) in
    if e < 0 then invalid_arg "Ptset.add_many: negative element";
    if not (mem s e) then fresh := e :: !fresh
  done;
  match !fresh with
  | [] -> s
  | l -> intern (univ ()) (merge_elems s.elems (Array.of_list (List.sort_uniq Int.compare l)))

(* ---- instrumentation ------------------------------------------------------------ *)

type stats = {
  st_sets : int;
  st_live_bytes : int;
  st_peak_bytes : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_rotations : int;
}

let word_bytes = Sys.word_size / 8

let stats () =
  let u = univ () in
  {
    st_sets = u.count;
    st_live_bytes = u.live_words * word_bytes;
    st_peak_bytes = u.peak_words * word_bytes;
    st_cache_hits = u.hits;
    st_cache_misses = u.misses;
    st_cache_rotations = u.rotations;
  }

let delta ~before ~after =
  {
    st_sets = after.st_sets - before.st_sets;
    st_live_bytes = after.st_live_bytes;
    st_peak_bytes = after.st_peak_bytes;
    st_cache_hits = after.st_cache_hits - before.st_cache_hits;
    st_cache_misses = after.st_cache_misses - before.st_cache_misses;
    st_cache_rotations = after.st_cache_rotations - before.st_cache_rotations;
  }
