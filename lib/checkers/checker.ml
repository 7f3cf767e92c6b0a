(* Checkers consume the tier-agnostic Query.node_view: the same checker
   body runs against the CI or CS solution, whichever view [Lint.run]
   hands it. *)
type ctx = {
  cx_prog : Sil.program;
  cx_graph : Vdg.t;
  cx_ci : Ci_solver.t;
  cx_sol : Query.node_view;
  cx_modref : Modref.t;
}

type info = {
  ck_name : string;
  ck_doc : string;
  ck_run : ctx -> Diag.t list;
}

let in_frame fname (b : Apath.base) =
  match b.Apath.bkind with
  | Apath.Bvar v -> (
    match v.Sil.vkind with
    | Sil.Local f | Sil.Temp f -> String.equal f fname
    | Sil.Param (f, _) -> String.equal f fname
    | Sil.Global -> false)
  | Apath.Bheap _ | Apath.Bstr _ | Apath.Bfun _ | Apath.Bext _ -> false

let root_base (p : Apath.t) = p.Apath.proot

let where = function Some l -> Srcloc.to_string l | None -> "<entry>"

let string_of_rw = function `Read -> "read" | `Write -> "write"
