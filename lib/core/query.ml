let paths_may_overlap a b =
  List.exists (fun p -> List.exists (fun q -> Apath.dom p q || Apath.dom q p) b) a

(* ---- the tier-agnostic view ---------------------------------------------------- *)

(* One record of closures abstracts over which solver produced the
   points-to facts; every question below is phrased against it once
   instead of per solver.  The three constructors are thin: each tier
   already exposes [pairs] and [referenced_locations], so a view is just
   those two functions plus the graph they index into. *)
type node_view = {
  nv_tier : string;
  nv_graph : Vdg.t;
  nv_pairs : Vdg.node_id -> Ptpair.t list;
  nv_referenced : Vdg.node_id -> Apath.t list;
}

let ci_view ci =
  {
    nv_tier = "ci";
    nv_graph = Ci_solver.graph ci;
    nv_pairs =
      (fun nid -> Ptpair.Set.elements (Ci_solver.graph ci).Vdg.tbl (Ci_solver.pairs ci nid));
    nv_referenced = Ci_solver.referenced_locations ci;
  }

(* Assumptions stripped; the CI solver supplies the graph. *)
let cs_view ci cs =
  {
    nv_tier = "cs";
    nv_graph = Ci_solver.graph ci;
    nv_pairs = Cs_solver.pairs cs;
    nv_referenced = Cs_solver.referenced_locations cs;
  }

(* The locations a node's output concerns: for memory operations the
   storage they touch; for value outputs (allocation sites, formals,
   address-of nodes, ...) the storage the value may denote.  The latter
   case reads the pairs directly — [nv_referenced] only answers for
   lookup/update nodes, which used to make [alias] silently return false
   for perfectly good location queries on e.g. an [Nalloc] or a pointer
   formal. *)
let locations v nid =
  match (Vdg.node v.nv_graph nid).Vdg.nkind with
  | Vdg.Nlookup | Vdg.Nupdate -> v.nv_referenced nid
  | _ ->
    List.filter_map
      (fun (p : Ptpair.t) ->
        if Apath.is_location p.Ptpair.referent then Some p.Ptpair.referent
        else None)
      (v.nv_pairs nid)
    |> List.sort_uniq Apath.compare

let alias v a b = paths_may_overlap (locations v a) (locations v b)

(* CI shorthands, kept because the context-insensitive tier is the
   default answer surface everywhere. *)
let locations_denoted ci nid = locations (ci_view ci) nid
let may_alias ci a b = alias (ci_view ci) a b

type conflict = {
  cf_a : Modref.op;
  cf_b : Modref.op;
  cf_kind : [ `Write_write | `Read_write ];
  cf_common : Apath.t list;
}

let common_targets a b =
  List.filter
    (fun p -> List.exists (fun q -> Apath.dom p q || Apath.dom q p) b)
    a

let conflicts_in modref fname =
  let ops =
    List.filter (fun op -> String.equal op.Modref.op_fun fname) (Modref.ops modref)
  in
  let rec pairs acc = function
    | [] -> acc
    | op :: rest ->
      let acc =
        List.fold_left
          (fun acc other ->
            let writes =
              op.Modref.op_rw = `Write || other.Modref.op_rw = `Write
            in
            if not writes then acc
            else begin
              let common = common_targets op.Modref.op_targets other.Modref.op_targets in
              if common = [] then acc
              else
                let kind =
                  if op.Modref.op_rw = `Write && other.Modref.op_rw = `Write then
                    `Write_write
                  else `Read_write
                in
                (* canonical orientation: the node created first is cf_a,
                   so {a,b} and {b,a} are the same conflict *)
                let a, b =
                  if op.Modref.op_node <= other.Modref.op_node then (op, other)
                  else (other, op)
                in
                { cf_a = a; cf_b = b; cf_kind = kind; cf_common = common } :: acc
            end)
          acc rest
      in
      pairs acc rest
  in
  pairs [] ops
  |> List.sort_uniq (fun c c' ->
         compare
           (c.cf_a.Modref.op_node, c.cf_b.Modref.op_node, c.cf_kind)
           (c'.cf_a.Modref.op_node, c'.cf_b.Modref.op_node, c'.cf_kind))

type purity =
  | Pure
  | Impure_writes
  | Impure_calls of string

(* library functions with no memory effects worth modeling *)
let pure_externs =
  [ "strlen"; "strcmp"; "strncmp"; "memcmp"; "abs"; "labs"; "atoi"; "atol" ]

let classify_purity g ci fname =
  let visited = Hashtbl.create 16 in
  (* updates per function, computed once *)
  let writes_of = Hashtbl.create 16 in
  Vdg.iter_nodes g (fun n ->
      if n.Vdg.nkind = Vdg.Nupdate then Hashtbl.replace writes_of n.Vdg.nfun ());
  let exception Found of purity in
  let rec visit f =
    if not (Hashtbl.mem visited f) then begin
      Hashtbl.replace visited f ();
      if Hashtbl.mem writes_of f then raise (Found Impure_writes);
      List.iter
        (fun call ->
          if String.equal (Vdg.node g call).Vdg.nfun f then begin
            List.iter visit (Ci_solver.callees ci call);
            List.iter
              (fun ext ->
                if not (List.mem ext pure_externs) then
                  raise (Found (Impure_calls ext)))
              (Ci_solver.extern_callees ci call)
          end)
        g.Vdg.calls
    end
  in
  match visit fname with () -> Pure | exception Found p -> p

let pure_functions g ci =
  Hashtbl.fold
    (fun fname _ acc ->
      if fname <> Sil.global_init_name && classify_purity g ci fname = Pure then
        fname :: acc
      else acc)
    g.Vdg.funs []
  |> List.sort compare
