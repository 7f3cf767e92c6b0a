(* Quickstart: compile a C program, run the context-insensitive points-to
   analysis, and ask what each pointer dereference can touch.

     dune exec examples/quickstart.exe *)

let program =
  {|
typedef struct node { int val; struct node *next; } node_t;

int counter;
int *active;

node_t *push(node_t *head, int v) {
  node_t *n = (node_t *)malloc(sizeof(node_t));
  n->val = v;
  n->next = head;
  return n;
}

int total(node_t *l) {
  int s = 0;
  while (l) { s += l->val; l = l->next; }
  return s;
}

int main(int argc, char **argv) {
  node_t *stack = 0;
  int i;
  active = &counter;
  for (i = 0; i < 4; i++) stack = push(stack, i);
  *active = total(stack);
  return counter;
}
|}

let () =
  (* 1. one call runs the pipeline: preprocess/parse/typecheck/lower,
     build the value dependence graph (SSA + threaded store), and solve
     the context-insensitive analysis (paper, Figure 1).  The
     context-sensitive solve is lazy — untouched here, never run.
     Failure is a value: [Engine.analyze] returns a result whose error
     side covers frontend failures, exhausted budgets, and cancellation;
     an unbudgeted request always reaches the full analysis. *)
  let input = Engine.load_string ~file:"quickstart.c" program in
  let a =
    match Engine.analyze Engine.default_request input with
    | Ok { Engine.td_analysis = Some a; _ } -> a
    | Ok _ -> assert false (* only a budget degrades a run below ci *)
    | Error e ->
      prerr_endline (Engine.error_message e);
      exit 1
  in
  let graph = a.Engine.graph and ci = a.Engine.ci in
  Printf.printf "VDG: %d nodes, %d alias-related outputs\n\n" (Vdg.n_nodes graph)
    (Stats.alias_related_outputs graph);

  (* 2. query: what may each indirect memory operation touch? *)
  print_endline "indirect memory operations:";
  List.iter
    (fun ((n : Vdg.node), rw) ->
      let targets = Ci_solver.referenced_locations ci n.Vdg.nid in
      Printf.printf "  %-5s in %-8s %s -> { %s }\n"
        (match rw with `Read -> "read" | `Write -> "write")
        n.Vdg.nfun
        (match Vdg.loc_of graph n.Vdg.nid with
        | Some l -> Srcloc.to_string l
        | None -> "<entry>")
        (String.concat ", " (List.map Apath.to_string targets)))
    (Vdg.indirect_memops graph);

  (* 3. the engine timed each phase *)
  Printf.printf "\nphases:";
  List.iter
    (fun name ->
      match Telemetry.phase_seconds a.Engine.telemetry name with
      | Some s -> Printf.printf " %s %.1fms" name (1000. *. s)
      | None -> ())
    Telemetry.phase_names;
  print_newline ();

  (* 4. sanity-check the program actually runs (concrete interpreter) *)
  let res = Interp.run a.Engine.prog in
  (match res.Interp.outcome with
  | Interp.Exit code -> Printf.printf "\nconcrete run: exit %Ld (sum 0+1+2+3 = 6)\n" code
  | Interp.Out_of_fuel -> print_endline "\nconcrete run: out of fuel"
  | Interp.Trap m -> Printf.printf "\nconcrete run: trap (%s)\n" m)
