type t = {
  path : Apath.t;
  referent : Apath.t;
}

let make path referent = { path; referent }

let equal a b = Apath.equal a.path b.path && Apath.equal a.referent b.referent

let compare a b =
  let c = Apath.compare a.path b.path in
  if c <> 0 then c else Apath.compare a.referent b.referent

(* Explicitly pid-based: both components are dense interned ids below
   2^31 (enforced by Apath's interning), so the pack is injective and fits a
   63-bit OCaml int.  Deliberately NOT written via Apath.hash — the key
   is an identity, not a hash, and must stay collision-free even if the
   hash function changes. *)
let pack path referent = (path.Apath.pid lsl 31) lor referent.Apath.pid

let key p = pack p.path p.referent

let referent_mask = (1 lsl 31) - 1
let path_of_key tbl k = Apath.of_pid tbl (k lsr 31)
let referent_of_key tbl k = Apath.of_pid tbl (k land referent_mask)
let of_key tbl k = { path = path_of_key tbl k; referent = referent_of_key tbl k }

let hash = key

let to_string p =
  Printf.sprintf "(%s -> %s)" (Apath.to_string p.path) (Apath.to_string p.referent)

module Set = struct
  type pair = t
  type t = Ptset.t

  let mem s p = Ptset.mem s (key p)
  let cardinal = Ptset.cardinal
  let iter tbl f s = Ptset.iter (fun k -> f (of_key tbl k)) s
  let fold tbl f s init = Ptset.fold (fun k acc -> f (of_key tbl k) acc) s init
  let elements tbl (s : t) =
    Array.fold_right (fun k acc -> of_key tbl k :: acc) s.Ptset.elems []
end
