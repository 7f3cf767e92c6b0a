(* The paper's experiment in miniature: run the context-insensitive and
   maximally context-sensitive analyses side by side, on (a) a program
   built to showcase context-sensitivity and (b) a benchmark-shaped
   program where it buys nothing.

     dune exec examples/context_compare.exe *)

let adversarial =
  (* the classic identity-function example: every call site funnels
     through one procedure, so context-insensitivity conflates them *)
  {|
int a; int b; int c;
int *id(int *p) { return p; }
int main(void) {
  int *x = id(&a);
  int *y = id(&b);
  int *z = id(&c);
  *x = 1;
  *y = 2;
  *z = 3;
  return a + b + c;
}
|}

let benchmark_shaped =
  (* pointer-target mixing happens once, up front, in main; helpers own
     their data structures: the shape the paper found in real programs *)
  {|
typedef struct n { int v; struct n *next; } node;
int lo; int hi; int *level;
node *items;

node *push(node *h, int v) {
  node *x = (node *)malloc(sizeof(node));
  x->v = v; x->next = h; return x;
}
int total(node *l) {
  int s = 0;
  while (l) { s += l->v; l = l->next; }
  return s;
}
int step(int n) {
  *level = *level + n;       /* level was wired once, in main */
  items = push(items, n);
  return total(items);
}
int main(int argc, char **argv) {
  level = &lo;
  if (argc > 1) level = &hi;
  return step(1) + step(2) + step(3);
}
|}

let compare_on name src =
  let input = Engine.load_string ~file:(name ^ ".c") src in
  let td = Result.get_ok (Engine.analyze Engine.default_request input) in
  let a = Option.get td.Engine.td_analysis in
  let g = a.Engine.graph and ci = a.Engine.ci in
  let cs = Engine.cs a in
  Printf.printf "== %s ==\n" name;
  let refined = ref 0 and same = ref 0 in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      let a = List.sort Apath.compare (Ci_solver.referenced_locations ci n.Vdg.nid) in
      let b = List.sort Apath.compare (Cs_solver.referenced_locations cs n.Vdg.nid) in
      let pr tag locs =
        Printf.printf "     %s { %s }\n" tag
          (String.concat ", " (List.map Apath.to_string locs))
      in
      if List.equal Apath.equal a b then incr same
      else begin
        incr refined;
        Printf.printf "  %s in %s:\n"
          (match rw with `Read -> "read" | `Write -> "write")
          n.Vdg.nfun;
        pr "CI:" a;
        pr "CS:" b
      end)
    (Vdg.indirect_memops g);
  Printf.printf "  indirect ops: %d unchanged, %d refined by context-sensitivity\n"
    !same !refined;
  let ci_pairs = (Stats.ci_pair_counts ci).Stats.pc_total in
  let cs_pairs = (Stats.cs_pair_counts cs g).Stats.pc_total in
  Printf.printf "  points-to pairs: CI %d, CS %d (%.1f%% spurious)\n" ci_pairs cs_pairs
    (100. *. float_of_int (ci_pairs - cs_pairs) /. float_of_int (max 1 ci_pairs));
  Printf.printf "  meets: CI %d, CS %d (%.1fx)\n\n" (Ci_solver.flow_out_count ci)
    (Cs_solver.flow_out_count cs)
    (float_of_int (Cs_solver.flow_out_count cs)
    /. float_of_int (max 1 (Ci_solver.flow_out_count ci)))

(* the paper (end of Section 4.1): qualified information can also be used
   directly — here, projecting a shared callee's write targets onto each
   call site *)
let per_callsite_projection () =
  let src =
    "int a; int b;\n\
     void set(int *p, int v) { *p = v; }\n\
     int main(void) { set(&a, 1); set(&b, 2); return a + b; }"
  in
  let input = Engine.load_string ~file:"proj.c" src in
  let td = Result.get_ok (Engine.analyze Engine.default_request input) in
  let a = Option.get td.Engine.td_analysis in
  let g = a.Engine.graph and ci = a.Engine.ci in
  let cs = Engine.cs a in
  print_endline "== qualified pairs used directly (per-callsite mod sets) ==";
  let write_node =
    List.find_map
      (fun ((n : Vdg.node), rw) ->
        if rw = `Write && n.Vdg.nfun = "set" then Some n.Vdg.nid else None)
      (Vdg.memops g)
    |> Option.get
  in
  Printf.printf "  set's *p, merged over all contexts: { %s }\n"
    (String.concat ", "
       (List.map Apath.to_string (Cs_solver.referenced_locations cs write_node)));
  List.iter
    (fun call ->
      if List.mem "set" (Ci_solver.callees ci call)
         && (Vdg.node g call).Vdg.nfun = "main" then
        Printf.printf "  ... projected onto call %d: { %s }\n" call
          (String.concat ", "
             (List.map Apath.to_string
                (Cs_solver.locations_at_callsite cs ~call write_node))))
    g.Vdg.calls;
  print_newline ()

let () =
  compare_on "adversarial (CS wins)" adversarial;
  compare_on "benchmark-shaped (CS buys nothing)" benchmark_shaped;
  per_callsite_projection ();
  print_endline
    "The paper's finding: real pointer-intensive C programs look like the\n\
     second case — context-sensitivity removed a couple of percent of the\n\
     points-to pairs and changed nothing at indirect memory operations."
