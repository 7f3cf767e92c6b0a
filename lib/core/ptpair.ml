type t = {
  path : Apath.t;
  referent : Apath.t;
}

let make path referent = { path; referent }

let dummy = make Apath.dummy Apath.dummy

let equal a b = Apath.equal a.path b.path && Apath.equal a.referent b.referent

let compare a b =
  let c = Apath.compare a.path b.path in
  if c <> 0 then c else Apath.compare a.referent b.referent

(* Explicitly pid-based: both components are dense interned ids below
   2^31 (enforced by Apath.mk_path), so the pack is injective and fits a
   63-bit OCaml int.  Deliberately NOT written via Apath.hash — the key
   is an identity, not a hash, and must stay collision-free even if the
   hash function changes. *)
let key p = (p.path.Apath.pid lsl 31) lor p.referent.Apath.pid

let hash = key

let to_string p =
  Printf.sprintf "(%s -> %s)" (Apath.to_string p.path) (Apath.to_string p.referent)

module Set = struct
  type pair = t

  (* Dual representation: the hash-consed version handle gives
     binary-search membership and O(1) change detection on packed keys;
     the item list preserves insertion order, which the solvers'
     iteration order (and hence all reported orderings) are defined by. *)
  type t = {
    mutable ver : Ptset.t;
    mutable items : pair list;  (* reversed insertion order *)
  }

  let create () = { ver = Ptset.empty; items = [] }

  let mem s p = Ptset.mem s.ver (key p)

  let add s p =
    let v = Ptset.add s.ver (key p) in
    if Ptset.equal v s.ver then false
    else begin
      s.ver <- v;
      s.items <- p :: s.items;
      true
    end

  (* Bulk constructor for the parallel solver's shard merge: one sort +
     one intern instead of n incremental [add]s (each of which copies
     the version array, O(n^2) total).  Input need not be sorted or
     deduplicated; the result's iteration order is ascending [key]. *)
  let of_pairs ps =
    let sorted = List.sort_uniq (fun a b -> Int.compare (key a) (key b)) ps in
    { ver = Ptset.of_list (List.map key sorted); items = List.rev sorted }

  let cardinal s = Ptset.cardinal s.ver

  let version s = s.ver

  let elements s = List.rev s.items

  let iter f s = List.iter f (elements s)

  let fold f s init = List.fold_left (fun acc p -> f p acc) init (elements s)
end
