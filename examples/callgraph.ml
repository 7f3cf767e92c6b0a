(* Call-graph construction with function pointers: the points-to analysis
   resolves indirect calls on the fly (function values are just another
   kind of points-to fact), which is what makes whole-program analysis of
   callback-style C possible.

     dune exec examples/callgraph.exe *)

let program =
  {|
/* a tiny event loop with handler registration */
typedef int (*handler_t)(int);

int on_key(int code) { return code + 1; }
int on_tick(int ms) { return ms / 2; }
int on_quit(int unused) { return -1; }

handler_t table[3];

void install(void) {
  table[0] = on_key;
  table[1] = on_tick;
  table[2] = on_quit;
}

int dispatch(int ev, int arg) {
  handler_t h = table[ev & 3];
  if (h) return h(arg);
  return 0;
}

int run_loop(void) {
  int acc = 0; int i;
  for (i = 0; i < 6; i++) acc += dispatch(i % 3, i);
  return acc;
}

int main(void) {
  install();
  return run_loop();
}
|}

let () =
  let input = Engine.load_string ~file:"events.c" program in
  let td = Result.get_ok (Engine.analyze Engine.default_request input) in
  let a = Option.get td.Engine.td_analysis in
  let prog = a.Engine.prog and g = a.Engine.graph and ci = a.Engine.ci in

  print_endline "resolved call graph (direct and indirect edges):";
  let edges = Hashtbl.create 32 in
  List.iter
    (fun call ->
      let caller = (Vdg.node g call).Vdg.nfun in
      List.iter
        (fun callee -> Hashtbl.replace edges (caller, callee) ())
        (Ci_solver.callees ci call))
    g.Vdg.calls;
  Hashtbl.fold (fun e () acc -> e :: acc) edges []
  |> List.sort compare
  |> List.iter (fun (caller, callee) -> Printf.printf "  %s -> %s\n" caller callee);

  (* the interesting edge set: who can an indirect call reach? *)
  print_endline "\nindirect call sites:";
  List.iter
    (fun call ->
      let cm = Hashtbl.find g.Vdg.call_meta call in
      let fn_node = Vdg.node g cm.Vdg.cm_fn in
      match fn_node.Vdg.nkind with
      | Vdg.Nbase _ -> ()  (* direct *)
      | _ ->
        Printf.printf "  in %s: may call { %s }\n" (Vdg.node g call).Vdg.nfun
          (String.concat ", " (Ci_solver.callees ci call)))
    g.Vdg.calls;

  (* cross-check with the unification baseline: Steensgaard resolves the
     same calls, just (potentially) less precisely *)
  let st = Steensgaard.analyze prog in
  let fd = Option.get (Sil.find_function prog "dispatch") in
  let h = List.find (fun v -> v.Sil.vname = "h") fd.Sil.fd_locals in
  Printf.printf "\nSteensgaard: dispatch's 'h' may be { %s }\n"
    (String.concat ", "
       (List.filter_map
          (fun l -> if Absloc.is_function l then Some (Absloc.to_string l) else None)
          (Steensgaard.points_to_var st h)))
