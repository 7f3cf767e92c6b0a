(* Everything the seed decides: the order of the suite programs, the
   ide-bc edit scripts and probe pairs, and the serve-warm query mix.
   Only the OCaml standard library's generator is used, so a change to
   the analyzer never changes the inputs the benchmark sends it.  Each
   stream is keyed by (seed, stream, round), so one round's script does
   not depend on how many rounds the time window allowed before it. *)

let rng ~seed ~stream ~round = Random.State.make [| seed; stream; round |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let suite_order ~seed ~pass names = shuffle (rng ~seed ~stream:1 ~round:pass) names

(* ---- ide-bc ------------------------------------------------------------------ *)

(* A trailing comment makes the text new to every cache the server keeps
   (sessions and stored solutions are keyed by content) without moving a
   line. *)
let fresh_text ~seed ~round base =
  Printf.sprintf "%s\n/* ide-bc seed %d round %d */\n" base seed round

(* Lines that are exactly one assignment to a plain identifier, e.g.
   "  n = n + 1;": appending " n = n;" keeps the program valid, keeps its
   line count, and changes only the enclosing procedure. *)
let assigned_identifier line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] = ' ' do incr i done;
  let start = !i in
  let ident c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let digit c = c >= '0' && c <= '9' in
  if start = 0 || start >= n || not (ident line.[start]) then None
  else begin
    while !i < n && (ident line.[!i] || digit line.[!i]) do incr i done;
    let name = String.sub line start (!i - start) in
    if !i + 3 <= n && String.sub line !i 3 = " = " && line.[n - 1] = ';' then
      Some name
    else None
  end

type edit = { kind : string; text : string }

(* [edits] cumulative edits of one round, each one of: append a
   procedure that stores a global's address through a pointer parameter,
   rewrite one assignment in place, or revert to the round's base text.
   None moves a line of the base text, so line-keyed probes stay valid.
   The kinds follow a fixed cycle (append, rewrite, append, rewrite,
   revert) and the seed picks the lines, so every seed asks the server for
   the same mix of work and leaves it the same number of solutions. *)
let edit_kinds = [| "append"; "rewrite"; "append"; "rewrite"; "revert" |]

let edit_script ~seed ~round ~edits base =
  let st = rng ~seed ~stream:2 ~round in
  let base_lines = Array.of_list (String.split_on_char '\n' base) in
  let rewritable =
    Array.of_list
      (List.filter
         (fun i -> assigned_identifier base_lines.(i) <> None)
         (List.init (Array.length base_lines) Fun.id))
  in
  let cur = ref base in
  List.init edits (fun k ->
      let kind =
        match edit_kinds.(k mod Array.length edit_kinds) with
        | "rewrite" when Array.length rewritable > 0 ->
          let i = rewritable.(Random.State.int st (Array.length rewritable)) in
          let lines = Array.of_list (String.split_on_char '\n' !cur) in
          let name = Option.get (assigned_identifier base_lines.(i)) in
          lines.(i) <- Printf.sprintf "%s %s = %s;" lines.(i) name name;
          cur := String.concat "\n" (Array.to_list lines);
          "rewrite"
        | "revert" ->
          cur := base;
          "revert"
        | _ ->
          cur :=
            Printf.sprintf
              "%sint __ide_g%d_%d;\nvoid __ide_edit%d_%d(int **p) { *p = &__ide_g%d_%d; }\n"
              !cur round k round k round k;
          "append"
      in
      { kind; text = !cur })

(* One probe pair per answer the round asks for. *)
let probes ~seed ~round ~count lines =
  let st = rng ~seed ~stream:4 ~round in
  let n = Array.length lines in
  List.init count (fun _ ->
      (lines.(Random.State.int st n), lines.(Random.State.int st n)))

(* ---- serve-warm -------------------------------------------------------------- *)

type target = {
  file : string;
  session : string;
  nodes : int array;  (* VDG ids of the program's indirect memory operations *)
  lines : int array;  (* their source lines *)
  functions : string array;
}

let query_rng ~seed = rng ~seed ~stream:3 ~round:0

(* The mix of bench/load.exe without its deadline slice: may_alias 45%,
   points_to 15%, modref 12%, conflicts 10%, purity 6%, lint 3%, re-open
   of an unchanged file 6%, stats 3%. *)
let next_query st targets =
  let t = targets.(Random.State.int st (Array.length targets)) in
  let with_session extra =
    Ejson.Assoc (("session", Ejson.String t.session) :: extra)
  in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let die = Random.State.int st 100 in
  if die < 45 && Array.length t.nodes >= 2 then
    ( "may_alias",
      with_session [ ("a", Ejson.Int (pick t.nodes)); ("b", Ejson.Int (pick t.nodes)) ] )
  else if die < 60 && Array.length t.nodes > 0 then
    ("points_to", with_session [ ("node", Ejson.Int (pick t.nodes)) ])
  else if die < 72 && Array.length t.functions > 0 then
    ("modref", with_session [ ("function", Ejson.String (pick t.functions)) ])
  else if die < 82 then ("conflicts", with_session [])
  else if die < 88 then ("purity", with_session [])
  else if die < 91 then ("lint", with_session [])
  else if die < 97 then ("open", Ejson.Assoc [ ("file", Ejson.String t.file) ])
  else ("stats", Ejson.Null)
