(* A dataflow client built on the points-to results: flag stores through
   pointers whose possible targets are never read anywhere (a crude
   whole-program dead-store detector).  Demonstrates how downstream
   analyses consume the may-read/may-write sets, and why their precision
   matters: with a coarser analysis, the noisy merged target sets would
   hide the dead stores.

     dune exec examples/dead_store_finder.exe *)

let program =
  {|
int config; int debug_level; int stats_writes;
int *cfg_p; int *dbg_p; int *stats_p;

void set_all(int v) {
  *cfg_p = v;          /* read later: live */
  *dbg_p = v + 1;      /* never read: dead store */
  *stats_p = v + 2;    /* never read: dead store */
}

int main(void) {
  cfg_p = &config;
  dbg_p = &debug_level;
  stats_p = &stats_writes;
  set_all(7);
  return config;       /* only config is ever read */
}
|}

let () =
  let input = Engine.load_string ~file:"deadstore.c" program in
  let td = Result.get_ok (Engine.analyze Engine.default_request input) in
  let a = Option.get td.Engine.td_analysis in
  let g = a.Engine.graph and ci = a.Engine.ci in
  let modref = Modref.of_ci ci in

  (* union of everything the program ever reads through pointers or
     directly (direct global reads are lookup nodes too) *)
  let read_paths =
    List.concat_map
      (fun ((n : Vdg.node), rw) ->
        if rw = `Read then Ci_solver.referenced_locations ci n.Vdg.nid else [])
      (Vdg.memops g)
    |> List.sort_uniq Apath.compare
  in
  let ever_read target =
    (* a store is observable if some read may alias it *)
    List.exists (fun r -> Apath.dom r target || Apath.dom target r) read_paths
  in
  print_endline "stores whose targets are never read (dead):";
  List.iter
    (fun op ->
      if op.Modref.op_rw = `Write && op.Modref.op_targets <> [] then begin
        let dead = List.for_all (fun t -> not (ever_read t)) op.Modref.op_targets in
        if dead then
          Printf.printf "  %s in %s writes only { %s } - dead\n"
            (match op.Modref.op_loc with
            | Some l -> Srcloc.to_string l
            | None -> "<entry>")
            op.Modref.op_fun
            (String.concat ", " (List.map Apath.to_string op.Modref.op_targets))
      end)
    (Modref.ops modref);

  print_endline "\nall pointer writes, for reference:";
  List.iter
    (fun op ->
      if op.Modref.op_rw = `Write then
        Printf.printf "  %s in %s -> { %s }\n"
          (match op.Modref.op_loc with
          | Some l -> Srcloc.to_string l
          | None -> "<entry>")
          op.Modref.op_fun
          (String.concat ", " (List.map Apath.to_string op.Modref.op_targets)))
    (Modref.ops modref)
