type macro =
  | Object of string
  | Function of string list * string  (* parameter names, body *)

type state = {
  macros : (string, macro) Hashtbl.t;
  file : string;
  mutable expanded : int;
      (* bytes macro expansion has produced so far, counted at every
         nesting level: a measure of the expansion work *)
}

(* The cap on [expanded].  The suite, the examples and the generated
   programs expand a few kilobytes at most; a chain of macros that each
   use the previous one twice doubles its output per level, and would
   otherwise run until memory or patience ran out.  Counting as the
   text is produced makes the error fire before that work grows. *)
let max_expanded_bytes = 1 lsl 22

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let loc_of st line = Srcloc.make ~file:st.file ~line ~col:1

(* ---- directive parsing ------------------------------------------------ *)

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  while !j > !i && (s.[!j - 1] = ' ' || s.[!j - 1] = '\t' || s.[!j - 1] = '\r') do decr j done;
  String.sub s !i (!j - !i)

(* Split "#  define FOO ..." into (directive, rest). *)
let split_directive line =
  let body = strip (String.sub line 1 (String.length line - 1)) in
  let n = String.length body in
  let i = ref 0 in
  while !i < n && is_ident_char body.[!i] do incr i done;
  let name = String.sub body 0 !i in
  let rest = strip (String.sub body !i (n - !i)) in
  (name, rest)

let scan_ident loc s pos =
  let n = String.length s in
  if pos >= n || not (is_ident_start s.[pos]) then
    Srcloc.error loc "expected identifier in directive"
  else begin
    let stop = ref pos in
    while !stop < n && is_ident_char s.[!stop] do incr stop done;
    (String.sub s pos (!stop - pos), !stop)
  end

let parse_define st loc rest =
  let name, pos = scan_ident loc rest 0 in
  let n = String.length rest in
  if pos < n && rest.[pos] = '(' then begin
    (* function-like: parameter list immediately follows the name *)
    let params = ref [] in
    let i = ref (pos + 1) in
    let skip_ws () = while !i < n && (rest.[!i] = ' ' || rest.[!i] = '\t') do incr i done in
    skip_ws ();
    if !i < n && rest.[!i] = ')' then incr i
    else begin
      let rec loop () =
        skip_ws ();
        let p, stop = scan_ident loc rest !i in
        params := p :: !params;
        i := stop;
        skip_ws ();
        if !i < n && rest.[!i] = ',' then begin incr i; loop () end
        else if !i < n && rest.[!i] = ')' then incr i
        else Srcloc.error loc "malformed macro parameter list"
      in
      loop ()
    end;
    let body = strip (String.sub rest !i (n - !i)) in
    Hashtbl.replace st.macros name (Function (List.rev !params, body))
  end
  else begin
    let body = strip (String.sub rest pos (n - pos)) in
    Hashtbl.replace st.macros name (Object body)
  end

(* ---- macro expansion --------------------------------------------------- *)

(* Append one macro's replacement text, counting it against the cap. *)
let add_expansion st loc buf text =
  st.expanded <- st.expanded + String.length text;
  if st.expanded > max_expanded_bytes then
    Srcloc.error loc "macro expansion too large (over %d bytes)"
      max_expanded_bytes;
  Buffer.add_string buf text

(* Expand macros in one line of live text.  [banned] prevents recursive
   self-expansion.  Skips string and char literals. *)
let rec expand_text st loc banned text =
  let n = String.length text in
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  let copy_literal quote =
    Buffer.add_char buf text.[!i];
    incr i;
    let closed = ref false in
    while (not !closed) && !i < n do
      if text.[!i] = '\\' && !i + 1 < n then begin
        Buffer.add_char buf text.[!i];
        Buffer.add_char buf text.[!i + 1];
        i := !i + 2
      end
      else begin
        if text.[!i] = quote then closed := true;
        Buffer.add_char buf text.[!i];
        incr i
      end
    done
  in
  while !i < n do
    let c = text.[!i] in
    if c = '"' || c = '\'' then copy_literal c
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do incr i done;
      let word = String.sub text start (!i - start) in
      match (if List.mem word banned then None else Hashtbl.find_opt st.macros word) with
      | None -> Buffer.add_string buf word
      | Some (Object body) ->
        add_expansion st loc buf (expand_text st loc (word :: banned) body)
      | Some (Function (params, body)) ->
        (* needs an argument list right here, else not a macro call *)
        let save = !i in
        while !i < n && (text.[!i] = ' ' || text.[!i] = '\t') do incr i done;
        if !i < n && text.[!i] = '(' then begin
          let args, stop = scan_arguments loc text !i in
          i := stop;
          if List.length args <> List.length params
             && not (params = [] && args = [ "" ]) then
            Srcloc.error loc "macro %s expects %d argument(s), got %d" word
              (List.length params) (List.length args);
          let expanded_args =
            List.map (fun a -> expand_text st loc banned (strip a)) args
          in
          let substituted = substitute_params params expanded_args body in
          add_expansion st loc buf
            (expand_text st loc (word :: banned) substituted)
        end
        else begin
          i := save;
          Buffer.add_string buf word
        end
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* Scan a parenthesized, comma-separated argument list starting at the '('.
   Returns raw argument texts and the position one past the ')'. *)
and scan_arguments loc text start =
  let n = String.length text in
  let args = ref [] in
  let buf = Buffer.create 16 in
  let depth = ref 0 in
  let i = ref start in
  let finished = ref false in
  while (not !finished) && !i < n do
    let c = text.[!i] in
    (match c with
    | '(' ->
      incr depth;
      if !depth > 1 then Buffer.add_char buf c
    | ')' ->
      decr depth;
      if !depth = 0 then begin
        args := Buffer.contents buf :: !args;
        finished := true
      end
      else Buffer.add_char buf c
    | ',' when !depth = 1 ->
      args := Buffer.contents buf :: !args;
      Buffer.clear buf
    | '"' | '\'' ->
      (* copy literal verbatim *)
      let quote = c in
      Buffer.add_char buf c;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if text.[!i] = '\\' && !i + 1 < n then begin
          Buffer.add_char buf text.[!i];
          Buffer.add_char buf text.[!i + 1];
          i := !i + 1
        end
        else begin
          if text.[!i] = quote then closed := true;
          Buffer.add_char buf text.[!i]
        end;
        incr i
      done;
      i := !i - 1  (* outer loop will advance *)
    | _ -> Buffer.add_char buf c);
    incr i
  done;
  if not !finished then Srcloc.error loc "unterminated macro argument list";
  (List.rev !args, !i)

and substitute_params params args body =
  let n = String.length body in
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  while !i < n do
    let c = body.[!i] in
    if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char body.[!i] do incr i done;
      let word = String.sub body start (!i - start) in
      match List.find_index (String.equal word) params with
      | Some k -> Buffer.add_string buf (List.nth args k)
      | None -> Buffer.add_string buf word
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* ---- driver ------------------------------------------------------------ *)

(* Conditional stack entry: are we currently emitting, and did any branch
   of this conditional already fire? *)
type cond = { mutable live : bool; mutable fired : bool; parent_live : bool }

let run ?(defines = []) ~file src =
  let st = { macros = Hashtbl.create 32; file; expanded = 0 } in
  List.iter (fun (k, v) -> Hashtbl.replace st.macros k (Object v)) defines;
  let lines = String.split_on_char '\n' src in
  let out = Buffer.create (String.length src) in
  let stack : cond list ref = ref [] in
  let currently_live () =
    match !stack with [] -> true | top :: _ -> top.live
  in
  let line_no = ref 0 in
  List.iter
    (fun line ->
      incr line_no;
      let loc = loc_of st !line_no in
      let stripped = strip line in
      if String.length stripped > 0 && stripped.[0] = '#' then begin
        let directive, rest = split_directive stripped in
        (match directive with
        | "define" -> if currently_live () then parse_define st loc rest
        | "undef" ->
          if currently_live () then begin
            let name, _ = scan_ident loc rest 0 in
            Hashtbl.remove st.macros name
          end
        | "ifdef" | "ifndef" ->
          let name, _ = scan_ident loc rest 0 in
          let defined = Hashtbl.mem st.macros name in
          let want = if directive = "ifdef" then defined else not defined in
          let parent_live = currently_live () in
          let live = parent_live && want in
          stack := { live; fired = live; parent_live } :: !stack
        | "else" ->
          (match !stack with
          | [] -> Srcloc.error loc "#else without matching #ifdef"
          | top :: _ ->
            top.live <- top.parent_live && not top.fired;
            top.fired <- top.fired || top.live)
        | "endif" ->
          (match !stack with
          | [] -> Srcloc.error loc "#endif without matching #ifdef"
          | _ :: rest_stack -> stack := rest_stack)
        | "include" -> ()  (* inputs are self-contained; see interface *)
        | "" -> ()  (* null directive *)
        | other -> Srcloc.error loc "unsupported preprocessor directive #%s" other);
        Buffer.add_char out '\n'  (* keep line numbering aligned *)
      end
      else begin
        if currently_live () then
          Buffer.add_string out (expand_text st loc [] line);
        Buffer.add_char out '\n'
      end)
    lines;
  if !stack <> [] then
    Srcloc.error (loc_of st !line_no) "unterminated #ifdef at end of file";
  Buffer.contents out
