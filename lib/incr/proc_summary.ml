(* Per-procedure identity and interface summaries for incremental
   re-analysis.

   The canonical digest answers "did this procedure's text change?" in a
   way that is insensitive to everything a *different* procedure's edit
   can shift: source positions, program-wide variable ids, temp-variable
   names (Norm numbers them globally), heap-allocation site ids and
   string-pool indexes.  Variables print as their position among the
   procedure's formals@locals, allocation sites as a per-procedure
   ordinal, strings as their literal content.  Whether a direct callee is
   defined in the program or external is part of the digest (adding a
   definition for a previously-external name must dirty its callers), and
   so is each external callee's declared signature.

   The interface summary is the procedure-level points-to abstraction the
   dirty-SCC algorithm compares: the hash-consed versions of the pair
   sets on the procedure's formal / formal-store / return nodes.  Two
   summaries built in the same process compare in O(1). *)

let esc s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '\\' || c = '"' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* the names of the program's defined functions, as a membership test *)
let defined_names (prog : Sil.program) =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (fd : Sil.fundec) -> Hashtbl.replace tbl fd.Sil.fd_name ()) prog.Sil.p_functions;
  Hashtbl.mem tbl

let canonical_dump_with ~defined (prog : Sil.program) (fd : Sil.fundec) : string =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let addc = Buffer.add_char buf in
  let addi i = add (string_of_int i) in
  let pos = Hashtbl.create 16 in
  List.iteri
    (fun i (v : Sil.var) -> Hashtbl.replace pos v.Sil.vid i)
    (fd.Sil.fd_formals @ fd.Sil.fd_locals);
  let var (v : Sil.var) =
    match v.Sil.vkind with
    | Sil.Global ->
      add "g:";
      add v.Sil.vname;
      addc ':';
      add (Ctype.to_string v.Sil.vtype);
      addc ':';
      add (string_of_bool v.Sil.vaddr_taken)
    | _ -> (
      match Hashtbl.find_opt pos v.Sil.vid with
      | Some i ->
        add "l:";
        addi i;
        addc ':';
        add (Ctype.to_string v.Sil.vtype)
      | None ->
        (* foreign local: impossible *)
        add "x:";
        add v.Sil.vname)
  in
  let alloc_ord = ref 0 in
  let const = function
    | Sil.Cint i ->
      addc 'i';
      add (Int64.to_string i)
    | Sil.Cstr idx ->
      if idx >= 0 && idx < Array.length prog.Sil.p_strings then begin
        add "s\"";
        add (esc prog.Sil.p_strings.(idx));
        addc '"'
      end
      else begin
        add "s?";
        addi idx
      end
  in
  let rec lval (lv : Sil.lval) =
    (match lv.Sil.lbase with
    | Sil.Vbase v -> var v
    | Sil.Mem e ->
      add "*(";
      exp e;
      addc ')');
    List.iter
      (function
        | Sil.Ofield (k, tag, f) ->
          addc '.';
          add (match k with Ctype.Struct -> "s" | Ctype.Union -> "u");
          add tag;
          addc '.';
          add f
        | Sil.Oindex e ->
          addc '[';
          exp e;
          addc ']')
      lv.Sil.loffs
  and exp = function
    | Sil.Const c -> const c
    | Sil.Lval lv -> lval lv
    | Sil.Addr_of lv ->
      addc '&';
      lval lv
    | Sil.Start_of lv ->
      add "start(";
      lval lv;
      addc ')'
    | Sil.Fun_addr f ->
      add "fun:";
      add f
    | Sil.Unop (op, e, t) ->
      addc 'u';
      addi (match op with Sil.Neg -> 0 | Sil.Bnot -> 1 | Sil.Lnot -> 2);
      addc '(';
      exp e;
      add "):";
      add (Ctype.to_string t)
    | Sil.Binop (op, a, b, t) ->
      add (Sil.string_of_binop op);
      addc '(';
      exp a;
      addc ',';
      exp b;
      add "):";
      add (Ctype.to_string t)
    | Sil.Cast (t, e) ->
      addc '(';
      add (Ctype.to_string t);
      add ")(";
      exp e;
      addc ')'
  in
  let args = function
    | [] -> ()
    | e :: rest ->
      exp e;
      List.iter
        (fun e ->
          addc ',';
          exp e)
        rest
  in
  let instr = function
    | Sil.Set (lv, e, _) ->
      add "set ";
      lval lv;
      add " = ";
      exp e
    | Sil.Call (lv, target, actuals, _) ->
      Option.iter
        (fun lv ->
          lval lv;
          add " = ")
        lv;
      (match target with
      | Sil.Direct name ->
        if defined name then begin
          add "call:";
          add name
        end
        else begin
          add "ext:";
          add name;
          addc ':';
          add
            (match List.assoc_opt name prog.Sil.p_externals with
            | Some fs -> Ctype.to_string (Ctype.Func fs)
            | None -> "?")
        end
      | Sil.Indirect e ->
        add "ind:";
        exp e);
      addc '(';
      args actuals;
      addc ')'
    | Sil.Alloc (lv, size, _site, _) ->
      add "alloc#";
      addi !alloc_ord;
      incr alloc_ord;
      addc ' ';
      lval lv;
      add " = malloc(";
      exp size;
      addc ')'
  in
  add "proc ";
  add fd.Sil.fd_name;
  add " sig=";
  add (Ctype.to_string (Ctype.Func fd.Sil.fd_sig));
  add "\nformals=";
  addi (List.length fd.Sil.fd_formals);
  add " locals=";
  addi (List.length fd.Sil.fd_locals);
  add " entry=";
  addi fd.Sil.fd_entry;
  addc '\n';
  List.iteri
    (fun i (v : Sil.var) ->
      addc 'v';
      addi i;
      addc ' ';
      add (Ctype.to_string v.Sil.vtype);
      add " addr=";
      add (string_of_bool v.Sil.vaddr_taken);
      addc '\n')
    (fd.Sil.fd_formals @ fd.Sil.fd_locals);
  Array.iter
    (fun (b : Sil.block) ->
      add "block ";
      addi b.Sil.bid;
      addc '\n';
      List.iter
        (fun i ->
          add "  ";
          instr i;
          addc '\n')
        b.Sil.binstrs;
      add "  ";
      (match b.Sil.bterm with
      | Sil.Goto k ->
        add "goto ";
        addi k
      | Sil.If (c, a, b) ->
        add "if ";
        exp c;
        add " then ";
        addi a;
        add " else ";
        addi b
      | Sil.Return None -> add "return"
      | Sil.Return (Some e) ->
        add "return ";
        exp e
      | Sil.Unreachable -> add "unreachable");
      addc '\n')
    fd.Sil.fd_blocks;
  Buffer.contents buf

let canonical_dump prog fd = canonical_dump_with ~defined:(defined_names prog) prog fd

let digest prog fd = Digest.to_hex (Digest.string (canonical_dump prog fd))

let digests (prog : Sil.program) : (string * string) list =
  let defined = defined_names prog in
  List.map
    (fun fd ->
      (fd.Sil.fd_name, Digest.to_hex (Digest.string (canonical_dump_with ~defined prog fd))))
    prog.Sil.p_functions

(* Program-level context a procedure digest cannot localize: composite
   layouts (field accessors and pointer-containment classification),
   the external-declaration table (extern summaries can be reached
   indirectly, not just by direct calls), and which function is the
   root.  A change here falls back to a whole-program re-solve. *)
let program_dump (prog : Sil.program) : string =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add (Printf.sprintf "main=%s\n"
         (match prog.Sil.p_main with Some m -> m | None -> "<none>"));
  let comps =
    Hashtbl.fold (fun tag ci acc -> (tag, ci) :: acc) prog.Sil.p_comps []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (tag, (ci : Ctype.compinfo)) ->
      add
        (Printf.sprintf "comp %s %s defined=%b %s\n"
           (match ci.Ctype.ckind with Ctype.Struct -> "struct" | Ctype.Union -> "union")
           tag ci.Ctype.cdefined
           (String.concat ";"
              (List.map
                 (fun (f : Ctype.field) ->
                   f.Ctype.fname ^ ":" ^ Ctype.to_string f.Ctype.ftype)
                 ci.Ctype.cfields))))
    comps;
  List.iter
    (fun (name, fs) ->
      add (Printf.sprintf "extern %s %s\n" name (Ctype.to_string (Ctype.Func fs))))
    (List.sort compare prog.Sil.p_externals);
  Buffer.contents buf

let program_digest prog = Digest.to_hex (Digest.string (program_dump prog))

(* ---- interface summaries ------------------------------------------------------ *)

type iface = {
  if_name : string;
  if_formals : Ptset.t array;
  if_formal_store : Ptset.t;
  if_ret_value : Ptset.t option;
  if_ret_store : Ptset.t;
}

let interface (ci : Ci_solver.t) (name : string) : iface option =
  let g = Ci_solver.graph ci in
  match Hashtbl.find_opt g.Vdg.funs name with
  | None -> None
  | Some meta ->
    let version nid = Ci_solver.pairs ci nid in
    Some
      {
        if_name = name;
        if_formals = Array.map version meta.Vdg.fm_formals;
        if_formal_store = version meta.Vdg.fm_formal_store;
        if_ret_value = Option.map version meta.Vdg.fm_ret_value;
        if_ret_store = version meta.Vdg.fm_ret_store;
      }

let interface_equal (a : iface) (b : iface) : bool =
  a.if_name = b.if_name
  && Array.length a.if_formals = Array.length b.if_formals
  && Array.for_all2 (fun x y -> Ptset.equal x y) a.if_formals b.if_formals
  && Ptset.equal a.if_formal_store b.if_formal_store
  && (match (a.if_ret_value, b.if_ret_value) with
     | None, None -> true
     | Some x, Some y -> Ptset.equal x y
     | _ -> false)
  && Ptset.equal a.if_ret_store b.if_ret_store
