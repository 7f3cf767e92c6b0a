(* Canonical, order-independent dump of the CI and CS points-to solutions
   plus the lint verdicts of an analysis, and its MD5 digest.

   The dump sorts every enumeration (pairs per node, antichain members per
   pair, assumption descriptions per set, diagnostics), so two solver runs
   that reach the same fixpoint produce byte-identical dumps no matter
   what order the worklist visited facts in.  The regression suite pins
   the digests of the seed implementation's solutions; any solver change
   that alters a points-to fact, an assumption chain, or a lint verdict
   shows up as a digest mismatch. *)

let verdict_string = function
  | Lint.Agree -> "agree"
  | Lint.Ci_only -> "ci-only"
  | Lint.Cs_only -> "cs-only"

(* A node's "ci" lines, rendered and sorted once per distinct set: a
   solution has far fewer distinct sets than nodes, and equal sets share
   one hash-consed version, whose id keys the memo (ids are unique within
   one solution's universe). *)
let ci_lines (ci : Ci_solver.t) : Vdg.node_id -> string =
  let tbl = (Ci_solver.graph ci).Vdg.tbl in
  let memo = Hashtbl.create 1024 in
  fun nid ->
    let s = Ci_solver.pairs ci nid in
    if Ptset.is_empty s then ""
    else
      match Hashtbl.find_opt memo (Ptset.id s) with
      | Some lines -> lines
      | None ->
        let lines =
          Ptpair.Set.fold tbl (fun p acc -> Ptpair.to_string p :: acc) s []
          |> List.sort compare
          |> List.map (fun p -> "ci " ^ p ^ "\n")
          |> String.concat ""
        in
        Hashtbl.add memo (Ptset.id s) lines;
        lines

let dump (a : Engine.analysis) : string =
  let buf = Buffer.create (1 lsl 20) in
  let g = a.Engine.graph in
  let ci_lines = ci_lines a.Engine.ci in
  let cs = Engine.cs a in
  let actx = Cs_solver.assumption_ctx cs in
  let aset_string aset =
    let items =
      List.map
        (fun aid ->
          let node, pair = Assumption.describe actx aid in
          Printf.sprintf "(n%d %s)" node (Ptpair.to_string pair))
        (Assumption.elements aset)
      |> List.sort compare
    in
    "{" ^ String.concat "," items ^ "}"
  in
  Vdg.iter_nodes g (fun n ->
      let nid = n.Vdg.nid in
      let ci_block = ci_lines nid in
      let cs_quals =
        List.map
          (fun (p, chains) ->
            let chain_strs = List.sort compare (List.map aset_string chains) in
            Ptpair.to_string p ^ " :: " ^ String.concat " | " chain_strs)
          (Cs_solver.qualified cs nid)
        |> List.sort compare
      in
      if ci_block <> "" || cs_quals <> [] then begin
        Buffer.add_string buf (Printf.sprintf "node %d\n" nid);
        Buffer.add_string buf ci_block;
        List.iter (fun s -> Buffer.add_string buf ("cs " ^ s ^ "\n")) cs_quals
      end);
  let report = Lint.run ~compare_cs:true a in
  List.map
    (fun ((d : Diag.t), v) ->
      Printf.sprintf "lint %s %s %s\n" (verdict_string v) d.Diag.d_fingerprint
        (Diag.to_string d))
    report.Lint.rp_diags
  |> List.sort compare
  |> List.iter (Buffer.add_string buf);
  Buffer.contents buf

let digest a = Digest.to_hex (Digest.string (dump a))

(* CI-only variant for identity, not regression pinning: the server
   reports it for every exhaustive open and update, so it must not force
   the CS solve (which [Engine.cs] would memoize,
   silently upgrading later budgeted cs queries to the cached solution)
   nor pay for a lint run. *)
let ci_dump (a : Engine.analysis) : string =
  let buf = Buffer.create (1 lsl 16) in
  let ci_lines = ci_lines a.Engine.ci in
  Vdg.iter_nodes a.Engine.graph (fun n ->
      let block = ci_lines n.Vdg.nid in
      if block <> "" then begin
        Buffer.add_string buf (Printf.sprintf "node %d\n" n.Vdg.nid);
        Buffer.add_string buf block
      end);
  Buffer.contents buf

let ci_digest a = Digest.to_hex (Digest.string (ci_dump a))
