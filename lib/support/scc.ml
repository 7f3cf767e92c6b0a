(* Strongly connected components and condensation of an integer digraph.

   An iterative Tarjan implementation for the incremental engine's
   caller/callee dependency graph (lib/incr/dep_graph).  It works over
   graphs whose depth can match the deepest call chain of a workload
   program, so the traversal keeps an explicit frame stack and never
   recurses.

   Tarjan emits a component only once everything it reaches has been
   emitted, so components come out in reverse topological order of the
   condensation: ascending component id is already a bottom-up
   (successors-before-predecessors) schedule.  [topo] spells that order
   out so clients don't have to re-derive the invariant. *)

type t = {
  n_vertices : int;
  scc_of : int array;
  members : int list array;  (* component id -> vertices, discovery order *)
  succ : int list array;  (* condensation edges, deduplicated *)
  pred : int list array;
  topo : int array;  (* component ids, successors before predecessors *)
}

let n_components t = Array.length t.members

let condense ~(n : int) ~(succ : int list array) : t =
  if Array.length succ <> n then
    invalid_arg "Scc.condense: successor array length mismatch";
  let indexv = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] in
  let counter = ref 0 in
  let scc_of = Array.make (max n 1) (-1) in
  let members = ref [] in
  let n_scc = ref 0 in
  for root = 0 to n - 1 do
    if indexv.(root) < 0 then begin
      (* frame: (vertex, remaining successors) *)
      let call_stack = ref [ (root, succ.(root)) ] in
      indexv.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !call_stack <> [] do
        match !call_stack with
        | [] -> ()
        | (v, rest) :: frames -> (
          match rest with
          | w :: rest' ->
            call_stack := (v, rest') :: frames;
            if indexv.(w) < 0 then begin
              indexv.(w) <- !counter;
              lowlink.(w) <- !counter;
              incr counter;
              stack := w :: !stack;
              on_stack.(w) <- true;
              call_stack := (w, succ.(w)) :: !call_stack
            end
            else if on_stack.(w) then
              lowlink.(v) <- min lowlink.(v) indexv.(w)
          | [] ->
            (* post-visit of v *)
            if lowlink.(v) = indexv.(v) then begin
              let id = !n_scc in
              incr n_scc;
              let membs = ref [] in
              let continue = ref true in
              while !continue do
                match !stack with
                | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  scc_of.(w) <- id;
                  membs := w :: !membs;
                  if w = v then continue := false
                | [] -> continue := false
              done;
              members := !membs :: !members
            end;
            call_stack := frames;
            (match frames with
            | (u, _) :: _ -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
            | [] -> ()))
      done
    end
  done;
  let members = Array.of_list (List.rev !members) in
  let k = !n_scc in
  let scc_succ = Array.make (max k 1) [] in
  let scc_pred = Array.make (max k 1) [] in
  let eseen = Hashtbl.create 256 in
  Array.iteri
    (fun i js ->
      List.iter
        (fun j ->
          let a = scc_of.(i) and b = scc_of.(j) in
          if a <> b && not (Hashtbl.mem eseen (a, b)) then begin
            Hashtbl.replace eseen (a, b) ();
            scc_succ.(a) <- b :: scc_succ.(a);
            scc_pred.(b) <- a :: scc_pred.(b)
          end)
        js)
    succ;
  {
    n_vertices = n;
    scc_of;
    members;
    succ = Array.sub scc_succ 0 k;
    pred = Array.sub scc_pred 0 k;
    topo = Array.init k (fun i -> i);
  }
