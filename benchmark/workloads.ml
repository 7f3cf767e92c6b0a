(* The four workloads, measured end to end from outside the analyzer.
   The CLI workloads spawn the `analyze` binary and time each child from
   spawn to exit; the server workloads talk to `analyze serve --no-cache`
   over its Unix socket.  Nothing here links the analysis: the end-to-end
   path depends only on the CLI and the protocol (and on Ejson as the
   JSON codec).  All files live in the current directory: bench.ml moves
   into the work directory before any workload runs. *)

type ctx = {
  analyze : string;  (* absolute path of the analyze binary *)
  seed : int;
  seconds : float;  (* length of the measured window *)
  programs : string array;  (* suite programs (all 13 unless sliced) *)
  edits : int;  (* ide-bc edits per round *)
  pins : (string * string) list;  (* program -> MD5 of its report *)
}

type result = {
  workload : string;
  metrics : (string * float) list;  (* the BENCHMARK.json end-to-end metrics *)
  details : (string * float * string) list;  (* named figures, with units *)
  attempted : int;
  failed : int;
  problems : string list;
  rounds : int;
      (* passes (CLI), timed rounds (ide-bc) or requests (serve-warm):
         how much the traced replay may repeat *)
}

let workloads = [ "suite"; "linux100k"; "ide-bc"; "serve-warm" ]

(* The paper's 13 programs, as `analyze gen` names them. *)
let suite_programs =
  [| "allroots"; "anagram"; "assembler"; "backprop"; "bc"; "compiler"; "compress";
     "lex315"; "loader"; "part"; "simulator"; "span"; "yacr2" |]
let now = Unix.gettimeofday

(* Set-up runs several times per run; setup_s is the median.  A CLI
   set-up (generating the inputs) takes ~40 ms, and a shared box has slow
   spells of a second or more in which it takes ~40% longer; so the CLI
   workloads time half their set-ups before the window and half after it,
   and a spell must last the whole run to move the median.  A server
   set-up takes 0.5-1.5 s. *)
let cli_setups = 10
let server_setups = 5

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* ---- failures ---------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* newest first, at most 20 *)
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.problems < 20 then t.problems <- msg :: t.problems)
    fmt

let finish t ~workload ~metrics ~details ~rounds =
  {
    workload;
    metrics;
    details;
    attempted = t.attempted;
    failed = t.failed;
    problems = List.rev t.problems;
    rounds;
  }

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let gen ctx args out =
  let o = Proc.run ~stdout:out ctx.analyze ("gen" :: args) in
  if o.Proc.code <> 0 then
    failwith (Printf.sprintf "analyze gen %s exited %d" (String.concat " " args) o.Proc.code)

let ms s = 1000. *. s

(* ---- CLI workloads ----------------------------------------------------------- *)

(* Check one analyze child: clean exit and a report whose MD5 is pinned. *)
let check_child t ctx name (o : Proc.outcome) out =
  t.attempted <- t.attempted + 1;
  if o.Proc.code <> 0 then fail t "%s: analyze exited %d" name o.Proc.code
  else
    match List.assoc_opt name ctx.pins with
    | None -> fail t "%s: no pinned report digest" name
    | Some pin ->
      let got = Digest.to_hex (Digest.file out) in
      if got <> pin then fail t "%s: report MD5 %s, pinned %s" name got pin

(* Passes over [programs] (name, gen arguments) until the window is spent,
   at least two; every pass is completed so each program has the same
   sample count. *)
let cli ctx ~workload ~programs ~analyze_args =
  let t = tally () in
  (* regenerating after the window rewrites the same inputs *)
  let set_ups () =
    List.init cli_setups (fun _ ->
        fst
          (timed (fun () ->
               Array.iter (fun (name, args) -> gen ctx args (name ^ ".c")) programs)))
  in
  let before = set_ups () in
  let walls = Hashtbl.create 16 in
  let all = ref [] and rss = ref 0. in
  let start = now () in
  let pass = ref 0 in
  while !pass < 2 || now () -. start < ctx.seconds do
    Array.iter
      (fun (name, _) ->
        let out = name ^ ".out" in
        let o = Proc.run ~stdout:out ctx.analyze (analyze_args (name ^ ".c")) in
        check_child t ctx name o out;
        Hashtbl.replace walls name
          (o.Proc.wall_s :: Option.value ~default:[] (Hashtbl.find_opt walls name));
        all := o.Proc.wall_s :: !all;
        rss := Float.max !rss o.Proc.rss_mb)
      (Gen.suite_order ~seed:ctx.seed ~pass:!pass programs);
    incr pass
  done;
  let elapsed = now () -. start in
  let after = set_ups () in
  let analyze_s =
    Hashtbl.fold (fun _ ws acc -> acc +. Sample.median ws) walls 0.
  in
  finish t ~workload ~rounds:!pass
    ~metrics:
      [
        ("setup_s", Sample.median (before @ after));
        ("p50_ms", ms (Sample.median !all));
        ("tail_ms", ms (Sample.percentile !all 0.9));
        ("ops_per_s", float_of_int (List.length !all) /. elapsed);
        ("peak_rss_mb", !rss);
      ]
    ~details:
      [
        ("analyze_s", analyze_s, "s");
        ("passes", float_of_int !pass, "count");
        ("children", float_of_int (List.length !all), "count");
      ]

let suite ctx =
  cli ctx ~workload:"suite"
    ~programs:(Array.map (fun n -> (n, [ n ])) ctx.programs)
    ~analyze_args:(fun file -> [ "analyze"; "-s"; file ])

let linux100k ctx =
  cli ctx ~workload:"linux100k"
    ~programs:[| ("linux100k", [ "--profile"; "linux"; "--lines"; "100000" ]) |]
    ~analyze_args:(fun file -> [ "analyze"; file ])

(* ---- server plumbing ------------------------------------------------------------ *)

type server = { pid : int; sock : string; conn : Wire.t; mutable next_id : int }

let fresh_id s =
  s.next_id <- s.next_id + 1;
  s.next_id

let call s meth params = Wire.call s.conn ~id:(fresh_id s) meth params

let ok what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

(* [call] for set-up requests, which must not fail *)
let must s meth params = ok meth (call s meth params)

let start_server ctx sock =
  let pid =
    Proc.start ~stderr:(sock ^ ".log") ctx.analyze [ "serve"; "--socket"; sock; "--no-cache" ]
  in
  let conn = Wire.connect sock in
  let s = { pid; sock; conn; next_id = 0 } in
  ignore (must s "ping" Ejson.Null);
  s

(* Ask the server to exit, wait until it closes the connection, and reap
   it for its peak RSS. *)
let shutdown s =
  (try
     Wire.send s.conn (Wire.request_line ~id:(fresh_id s) "shutdown" Ejson.Null);
     while true do ignore (Wire.recv s.conn) done
   with Wire.Closed | Failure _ -> ());
  Wire.close s.conn;
  Proc.reap s.pid

let str_member name json =
  match Ejson.member name json with Some (Ejson.String s) -> s | _ -> ""

(* Open [file] and learn its queryable surface through modref: the node
   ids, source lines and functions of its indirect memory operations.
   [call] raises on an error reply. *)
let discover call file =
  let session = str_member "session" (call "open" (Ejson.Assoc [ ("file", Ejson.String file) ])) in
  let ops =
    match Ejson.member "ops" (call "modref" (Ejson.Assoc [ ("session", Ejson.String session) ])) with
    | Some (Ejson.List ops) -> ops
    | _ -> failwith "modref: no ops in reply"
  in
  let ints f = Array.of_list (List.sort_uniq compare (List.filter_map f ops)) in
  {
    Gen.file;
    session;
    nodes = ints (fun op -> match Ejson.member "node" op with Some (Ejson.Int n) -> Some n | _ -> None);
    lines =
      ints (fun op ->
          match String.split_on_char ':' (str_member "loc" op) with
          | [ _; line; _ ] -> int_of_string_opt line
          | _ -> None);
    functions = Array.of_list (List.sort_uniq compare (List.map (str_member "function") ops));
  }

(* [server_setups] set-ups, timed; [setup k] starts server k and returns
   it with what it learned.  The first server stays up, idle, as the
   reference the outputs are checked against; the last is the one
   measured; those between are shut down as soon as they are timed. *)
let set_up_servers setup =
  let times = Array.make server_setups 0. in
  let run k =
    let dt, v = timed (fun () -> setup k) in
    times.(k) <- dt;
    v
  in
  let reference = run 0 in
  for k = 1 to server_setups - 2 do
    ignore (shutdown (fst (run k)))
  done;
  let measured = run (server_setups - 1) in
  (Sample.median (Array.to_list times), reference, measured)

(* ---- ide-bc ------------------------------------------------------------------- *)

type probe = { a_line : int; b_line : int; verdict : bool }

let may_alias_params session (a, b) =
  Ejson.Assoc
    [ ("session", Ejson.String session); ("a_line", Ejson.Int a); ("b_line", Ejson.Int b) ]

let verdict json =
  match Ejson.member "may_alias" json with Some (Ejson.Bool b) -> b | _ -> false

let ide_file = "ide.c"

(* Eight rounds per 10 s of --seconds (a round, an open and [edits]
   updates each followed by a probe, takes about 2.5 s on a 2-core box):
   eight opens for their median, and enough solutions to fill the
   server's retained-solution store, which steadies its peak RSS.  The
   count follows from --seconds, not from how fast the rounds go, so both
   commits of a comparison do the same work. *)
let ide_rounds ctx = max 1 (int_of_float (Float.round (ctx.seconds *. 0.8)))

(* Every text the measured server solved is opened cold on the reference
   server, two at a time over two connections; every solution digest the
   measured server gave for that text (a revert gives the round's base
   text again) and every probe verdict asked on it must agree. *)
let check_ide t reference records =
  let distinct = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (text, digest, probe) ->
      match Hashtbl.find_opt distinct text with
      | Some answers -> Hashtbl.replace distinct text ((digest, probe) :: answers)
      | None ->
        Hashtbl.replace distinct text [ (digest, probe) ];
        order := text :: !order)
    records;
  let second = Wire.connect reference.sock in
  let lanes = [| (reference.conn, "ref0.c"); (second, "ref1.c") |] in
  let id = ref 0 in
  let call_on conn meth params =
    incr id;
    Wire.call conn ~id:!id meth params
  in
  let rec go = function
    | [] -> ()
    | texts ->
      let batch = List.filteri (fun i _ -> i < 2) texts in
      let rest = List.filteri (fun i _ -> i >= 2) texts in
      let sent =
        List.mapi
          (fun i text ->
            let conn, file = lanes.(i) in
            write_file file text;
            incr id;
            Wire.send conn
              (Wire.request_line ~id:!id "open" (Ejson.Assoc [ ("file", Ejson.String file) ]));
            (conn, file, !id, text))
          batch
      in
      List.iter
        (fun (conn, file, rid, text) ->
          match Wire.reply ~id:rid (Wire.recv conn) with
          | Error msg -> fail t "reference open failed: %s" msg
          | Ok opened ->
            let reference_digest = str_member "solution_digest" opened in
            List.iter
              (fun (digest, p) ->
                if digest <> reference_digest then
                  fail t "solution digest %s, cold reference %s" digest reference_digest;
                match
                  call_on conn "may_alias"
                    (may_alias_params (str_member "session" opened) (p.a_line, p.b_line))
                with
                | Ok v when verdict v = p.verdict -> ()
                | Ok _ -> fail t "may_alias(%d,%d) disagrees with the cold reference" p.a_line p.b_line
                | Error msg -> fail t "reference may_alias failed: %s" msg)
              (Hashtbl.find distinct text);
            ignore (call_on conn "close" (Ejson.Assoc [ ("file", Ejson.String file) ])))
        sent;
      go rest
  in
  go (List.rev !order);
  Wire.close second

(* (count, total seconds) the server spent in its open handler so far,
   from its stats reply: the difference across the window splits the
   client's open round trip into handler and transport. *)
let server_open_time s =
  let num name json =
    match Ejson.member name json with
    | Some (Ejson.Float f) -> f
    | Some (Ejson.Int n) -> float_of_int n
    | _ -> 0.
  in
  match Option.bind (Ejson.member "methods" (must s "stats" Ejson.Null)) (Ejson.member "open") with
  | Some o -> (num "count" o, num "total_seconds" o)
  | None -> (0., 0.)

let ide_bc ctx =
  let t = tally () in
  let setup k =
    gen ctx [ "bc" ] "bc.c";
    let s = start_server ctx (Printf.sprintf "ide%d.sock" k) in
    let target = discover (must s) "bc.c" in
    ignore (must s "close" (Ejson.Assoc [ ("file", Ejson.String "bc.c") ]));
    (s, target.Gen.lines)
  in
  let setup_s, (reference, _), (m, lines) = set_up_servers setup in
  let base_src = read_file "bc.c" in
  let opens = ref [] and edits = ref [] and open_rpc = ref [] and probe_rpc = ref [] in
  let records = ref [] in
  let request meth params =
    t.attempted <- t.attempted + 1;
    match call m meth params with
    | Ok v -> Some v
    | Error msg ->
      fail t "%s: %s" meth msg;
      None
  in
  (* one answer: [meth] on new text, then a line-keyed may_alias on the
     session it produced; returns (total, rpc, probe) seconds *)
  let answer text meth params pair =
    let t0 = now () in
    match request meth params with
    | None -> None
    | Some reply -> (
      let t1 = now () in
      let session = str_member "session" reply in
      match request "may_alias" (may_alias_params session pair) with
      | None -> None
      | Some v ->
        let t2 = now () in
        let a_line, b_line = pair in
        records :=
          (text, str_member "solution_digest" reply, { a_line; b_line; verdict = verdict v })
          :: !records;
        Some (t2 -. t0, t1 -. t0, t2 -. t1))
  in
  let keep samples v = samples := v :: !samples in
  (* round 0 is an untimed warm-up: the server's heap grows to its working
     size before the window opens *)
  let one_round r =
    let timed = r > 0 in
    let base = Gen.fresh_text ~seed:ctx.seed ~round:r base_src in
    let script = Gen.edit_script ~seed:ctx.seed ~round:r ~edits:ctx.edits base in
    let probes = Gen.probes ~seed:ctx.seed ~round:r ~count:(ctx.edits + 1) lines in
    write_file ide_file base;
    (match
       answer base "open" (Ejson.Assoc [ ("file", Ejson.String ide_file) ]) (List.hd probes)
     with
    | Some (total, rpc, probe) ->
      if timed then begin
        keep opens total;
        keep open_rpc rpc;
        keep probe_rpc probe
      end;
      List.iter2
        (fun (e : Gen.edit) pair ->
          match
            answer e.Gen.text "update"
              (Ejson.Assoc
                 [ ("file", Ejson.String ide_file); ("source", Ejson.String e.Gen.text) ])
              pair
          with
          | Some (total, _, probe) when timed ->
            keep edits total;
            keep probe_rpc probe
          | _ -> ())
        script (List.tl probes)
    | None -> ());
    ignore (request "close" (Ejson.Assoc [ ("file", Ejson.String ide_file) ]))
  in
  one_round 0;
  let opens_before, open_s_before = server_open_time m in
  let start = now () in
  let rounds = ide_rounds ctx in
  for r = 1 to rounds do
    one_round r
  done;
  let elapsed = now () -. start in
  let opens_after, open_s_after = server_open_time m in
  let server_open_ms =
    ms ((open_s_after -. open_s_before) /. Float.max 1. (opens_after -. opens_before))
  in
  let rss = (shutdown m).Proc.rss_mb in
  check_ide t reference (List.rev !records);
  ignore (shutdown reference);
  let answers = List.length !opens + List.length !edits in
  finish t ~workload:"ide-bc" ~rounds
    ~metrics:
      [
        ("setup_s", setup_s);
        (* the two paths apart: p50_ms the edit answers, tail_ms the slow
           one, the opens (median of one per round) *)
        ("p50_ms", ms (Sample.median !edits));
        ("tail_ms", ms (Sample.median !opens));
        ("ops_per_s", float_of_int answers /. elapsed);
        ("peak_rss_mb", rss);
      ]
    ~details:
      [
        ("open_first_answer_ms", ms (Sample.median !opens), "ms");
        ("edit_answer_p50_ms", ms (Sample.median !edits), "ms");
        ("edit_answer_p90_ms", ms (Sample.percentile !edits 0.9), "ms");
        ("open_rpc_mean_ms", ms (Sample.sum !open_rpc /. float_of_int (List.length !open_rpc)), "ms");
        ("server_open_mean_ms", server_open_ms, "ms");
        ("probe_us", 1e6 *. Sample.median !probe_rpc, "us");
        ("rounds", float_of_int rounds, "count");
        ("edit_samples", float_of_int (List.length !edits), "count");
      ]

(* ---- serve-warm ----------------------------------------------------------------- *)

let warmup_s = 1.
let replay_sample = 500

(* Fields whose values legitimately differ between two servers given the
   same requests: timings (an open's pipeline_seconds, lint's per-checker
   seconds), cache status, an open's approximate retained "bytes" (it
   varies with heap sharing), and the stats method's counters. *)
let volatile = [ "pipeline_seconds"; "seconds"; "status"; "bytes" ]

let rec strip = function
  | Ejson.Assoc kvs ->
    Ejson.Assoc
      (List.filter_map
         (fun (k, v) -> if List.mem k volatile then None else Some (k, strip v))
         kvs)
  | Ejson.List l -> Ejson.List (List.map strip l)
  | v -> v

let payload meth line =
  if meth = "stats" then Ejson.Null
  else
    match Ejson.of_string line with
    | exception Ejson.Parse_error _ -> Ejson.String line
    | json -> (
      match Ejson.member "result" json with
      | Some r -> strip r
      | None -> Option.value ~default:json (Ejson.member "error" json))

let serve_warm ctx =
  let t = tally () in
  let setup k =
    Array.iter (fun n -> gen ctx [ n ] (n ^ ".c")) ctx.programs;
    let s = start_server ctx (Printf.sprintf "warm%d.sock" k) in
    (s, Array.map (fun n -> discover (must s) (n ^ ".c")) ctx.programs)
  in
  let setup_s, (reference, _), (m, targets) = set_up_servers setup in
  let second = Wire.connect m.sock in
  let st = Gen.query_rng ~seed:ctx.seed in
  let sampler = Gen.rng ~seed:ctx.seed ~stream:5 ~round:0 in
  let lat = Sample.buf () in
  let by_method = Hashtbl.create 8 in
  let sample = Array.make replay_sample None in
  let n = ref 0 in
  let window_start = now () +. warmup_s in
  let stop = window_start +. ctx.seconds in
  let last = ref window_start in
  let record meth params id line t0 t1 =
    if t0 >= window_start then begin
      t.attempted <- t.attempted + 1;
      if Result.is_error (Wire.reply ~id line) then fail t "%s: %s" meth line;
      Sample.push lat (t1 -. t0);
      (match Hashtbl.find_opt by_method meth with
      | Some b -> Sample.push b (t1 -. t0)
      | None ->
        let b = Sample.buf () in
        Sample.push b (t1 -. t0);
        Hashtbl.replace by_method meth b);
      let slot = if !n < replay_sample then !n else Random.State.int sampler (!n + 1) in
      if slot < replay_sample then sample.(slot) <- Some (meth, params, line);
      incr n;
      last := t1
    end
  in
  (* closed loop: one request in flight on each of the two connections *)
  while now () < stop do
    let m1, p1 = Gen.next_query st targets in
    let id1 = fresh_id m in
    let line1 = Wire.request_line ~id:id1 m1 p1 in
    let s1 = now () in
    Wire.send m.conn line1;
    let m2, p2 = Gen.next_query st targets in
    let id2 = fresh_id m in
    let line2 = Wire.request_line ~id:id2 m2 p2 in
    let s2 = now () in
    Wire.send second line2;
    let l1 = Wire.recv m.conn in
    let e1 = now () in
    let l2 = Wire.recv second in
    let e2 = now () in
    record m1 p1 id1 l1 s1 e1;
    record m2 p2 id2 l2 s2 e2
  done;
  let elapsed = !last -. window_start in
  Wire.close second;
  let rss = (shutdown m).Proc.rss_mb in
  (* the same requests on a server that never saw the load *)
  Array.iter
    (function
      | Some (meth, params, line) ->
        let id = fresh_id reference in
        Wire.send reference.conn (Wire.request_line ~id meth params);
        let again = Wire.recv reference.conn in
        let show r =
          let s = Ejson.to_compact_string (payload meth r) in
          if String.length s > 300 then String.sub s 0 300 ^ "..." else s
        in
        if payload meth line <> payload meth again then
          fail t "%s %s: reply %s differs from a fresh server's %s" meth
            (Ejson.to_compact_string params) (show line) (show again)
      | None -> ())
    sample;
  ignore (shutdown reference);
  let sorted = Sample.to_sorted lat in
  let p q = Sample.percentile_sorted sorted q in
  finish t ~workload:"serve-warm" ~rounds:!n
    ~metrics:
      [
        ("setup_s", setup_s);
        ("p50_ms", ms (p 0.5));
        ("tail_ms", ms (p 0.99));
        ("ops_per_s", float_of_int !n /. elapsed);
        ("peak_rss_mb", rss);
      ]
    ~details:
      ([
         ("query_rps", float_of_int !n /. elapsed, "1/s");
         ("query_p50_us", 1e6 *. p 0.5, "us");
         ("query_p99_us", 1e6 *. p 0.99, "us");
         ("requests", float_of_int !n, "count");
       ]
      @ List.map
          (fun (meth, b) ->
            ( "client." ^ meth ^ "_us",
              1e6 *. Sample.percentile_sorted (Sample.to_sorted b) 0.5,
              "us" ))
          (List.sort
             (fun (a, _) (b, _) -> String.compare a b)
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_method [])))

let run ctx = function
  | "suite" -> suite ctx
  | "linux100k" -> linux100k ctx
  | "ide-bc" -> ide_bc ctx
  | "serve-warm" -> serve_warm ctx
  | w -> invalid_arg ("unknown workload " ^ w)
