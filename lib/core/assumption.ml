type ctx = {
  ids : (int, int) Hashtbl.t;  (* the caller's key for (formal node, pair) -> id *)
  mutable rev : (Vdg.node_id * Ptpair.t) array;
  mutable count : int;
}

type t = Ptset.t

let create_ctx () = { ids = Hashtbl.create 256; rev = [||]; count = 0 }

let intern ctx ~key node (pair : Ptpair.t) =
  match Hashtbl.find_opt ctx.ids key with
  | Some id -> id
  | None ->
    let id = ctx.count in
    if id >= Array.length ctx.rev then begin
      let cap = max 64 (2 * Array.length ctx.rev) in
      let fresh = Array.make cap (node, pair) in
      Array.blit ctx.rev 0 fresh 0 ctx.count;
      ctx.rev <- fresh
    end;
    ctx.rev.(id) <- (node, pair);
    ctx.count <- id + 1;
    Hashtbl.add ctx.ids key id;
    id

let describe ctx id =
  if id < 0 || id >= ctx.count then invalid_arg "Assumption.describe";
  ctx.rev.(id)

let count ctx = ctx.count

let empty : t = Ptset.empty

let singleton ctx ~key node pair = Ptset.singleton (intern ctx ~key node pair)

let union = Ptset.union
let subset = Ptset.subset
let cardinal = Ptset.cardinal
let is_empty = Ptset.is_empty
let elements = Ptset.elements
let equal = Ptset.equal

let to_string ctx s =
  let item id =
    let node, pair = describe ctx id in
    Printf.sprintf "(n%d, %s)" node (Ptpair.to_string pair)
  in
  "{" ^ String.concat ", " (List.map item (elements s)) ^ "}"

module Antichain = struct
  type set = t
  type nonrec t = set list

  let mem ac s = List.exists (Ptset.equal s) ac

  (* an exact re-derivation of a member, the most common outcome, is
     rejected by id before any memoized subset test *)
  let insert ac s =
    if mem ac s || List.exists (fun member -> Ptset.subset member s) ac then None
    else Some (s :: List.filter (fun member -> not (Ptset.subset s member)) ac)
end
