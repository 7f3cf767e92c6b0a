(* The alias-query server: protocol codecs and validation, method
   dispatch (including every structured error path), session identity
   and invalidation under content change, LRU eviction, verdict
   equivalence with direct Query/Lint invocation, the engine cache's
   purge/prune maintenance, a two-client exchange over a real
   Unix-domain socket with a clean shutdown, and that a dropped session
   leaves no in-memory copy of its solution behind. *)

let conflict_src =
  {|int shared;
int other;

void bump(int *p, int *q) {
  *p = *p + 1;
  *q = *q + 1;
}

int main(void) {
  bump(&shared, &shared);
  bump(&shared, &other);
  return shared;
}
|}

let disjoint_src =
  {|int a;
int b;

int main(void) {
  int *p = &a;
  int *q = &b;
  *p = 1;
  *q = 2;
  return *p + *q;
}
|}

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "alias_server_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let write_file path src =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc src)

let temp_c dir name src =
  let path = Filename.concat dir name in
  write_file path src;
  path

(* ---- helpers over the handler ---------------------------------------------------- *)

let rpc h conn meth params =
  let line = Protocol.request_line ~meth ~params () in
  match Handler.handle_line h conn line with
  | Handler.Reply r | Handler.Reply_shutdown r -> (
    match Protocol.response_of_line r with
    | Ok rs -> rs.Protocol.rs_result
    | Error msg -> Alcotest.failf "unparsable response line %S: %s" r msg)

let expect_ok what = function
  | Ok v -> v
  | Error (code, msg) ->
    Alcotest.failf "%s: unexpected error %s: %s" what
      (Protocol.string_of_error_code code)
      msg

let expect_error what code = function
  | Ok v ->
    Alcotest.failf "%s: expected %s, got result %s" what
      (Protocol.string_of_error_code code)
      (Ejson.to_compact_string v)
  | Error (got, _) ->
    Alcotest.(check string)
      what
      (Protocol.string_of_error_code code)
      (Protocol.string_of_error_code got)

let member_exn what name json =
  match Ejson.member name json with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing field %S" what name

let string_field what name json =
  match member_exn what name json with
  | Ejson.String s -> s
  | v -> Alcotest.failf "%s: %S is not a string: %s" what name (Ejson.to_compact_string v)

let int_field what name json =
  match member_exn what name json with
  | Ejson.Int n -> n
  | v -> Alcotest.failf "%s: %S is not an int: %s" what name (Ejson.to_compact_string v)

let bool_field what name json =
  match member_exn what name json with
  | Ejson.Bool b -> b
  | v -> Alcotest.failf "%s: %S is not a bool: %s" what name (Ejson.to_compact_string v)

let session_stat sessions name =
  match List.assoc_opt name (Session.stats_json sessions) with
  | Some (Ejson.Int n) -> n
  | _ -> Alcotest.failf "session stats: missing counter %S" name

(* ---- (a) protocol codecs --------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let params = Ejson.Assoc [ ("file", Ejson.String "x.c"); ("a", Ejson.Int 3) ] in
  let line = Protocol.request_line ~id:7 ~meth:"may_alias" ~params () in
  (match Protocol.request_of_line line with
  | Ok rq ->
    Alcotest.(check string) "method survives" "may_alias" rq.Protocol.rq_method;
    Alcotest.(check string)
      "id survives" "7"
      (Ejson.to_compact_string rq.Protocol.rq_id);
    Alcotest.(check string)
      "params survive"
      (Ejson.to_compact_string params)
      (Ejson.to_compact_string rq.Protocol.rq_params)
  | Error (_, msg) -> Alcotest.failf "request_line did not round-trip: %s" msg);
  (* request_to_json / request_of_json *)
  let rq =
    { Protocol.rq_id = Ejson.String "q-1"; rq_method = "ping"; rq_params = Ejson.Null }
  in
  (match Protocol.request_of_json (Protocol.request_to_json rq) with
  | Ok rq' ->
    Alcotest.(check string) "json round-trip method" "ping" rq'.Protocol.rq_method
  | Error (_, msg) -> Alcotest.failf "request json round-trip: %s" msg);
  (* responses *)
  let ok_line = Protocol.ok_response ~id:(Ejson.Int 3) (Ejson.Bool true) in
  (match Protocol.response_of_line ok_line with
  | Ok { Protocol.rs_id = Ejson.Int 3; rs_result = Ok (Ejson.Bool true); _ } -> ()
  | Ok _ -> Alcotest.fail "ok response decoded to the wrong shape"
  | Error msg -> Alcotest.failf "ok response did not parse: %s" msg);
  let err_line =
    Protocol.error_response ~id:Ejson.Null Protocol.Session_not_found "gone"
  in
  (match Protocol.response_of_line err_line with
  | Ok { Protocol.rs_result = Error (Protocol.Session_not_found, "gone"); _ } -> ()
  | Ok _ -> Alcotest.fail "error response decoded to the wrong shape"
  | Error msg -> Alcotest.failf "error response did not parse: %s" msg);
  (* every error code survives the int round-trip *)
  List.iter
    (fun code ->
      match Protocol.error_code_of_int (Protocol.int_of_error_code code) with
      | Some code' ->
        Alcotest.(check string)
          "error code int round-trip"
          (Protocol.string_of_error_code code)
          (Protocol.string_of_error_code code')
      | None ->
        Alcotest.failf "error code %s lost by int round-trip"
          (Protocol.string_of_error_code code))
    [
      Protocol.Parse_error; Protocol.Invalid_request; Protocol.Method_not_found;
      Protocol.Invalid_params; Protocol.Internal_error; Protocol.Session_not_found;
      Protocol.Frontend_error; Protocol.Shutting_down;
      Protocol.Unsupported_version; Protocol.Budget_exhausted; Protocol.Cancelled;
      Protocol.Overloaded; Protocol.Tier_unavailable;
    ];
  (* compact serialization never contains a newline: the framing invariant *)
  let tricky =
    Ejson.Assoc [ ("s", Ejson.String "line\nbreak\ttab \"quote\" \\ slash") ]
  in
  Alcotest.(check bool)
    "compact JSON is newline-free" false
    (String.contains (Ejson.to_compact_string tricky) '\n')

let test_protocol_validation () =
  (match Protocol.request_of_line "this is not json" with
  | Error (Protocol.Parse_error, _) -> ()
  | _ -> Alcotest.fail "non-JSON line must be a parse error");
  (match Protocol.request_of_line "[1,2,3]" with
  | Error (Protocol.Invalid_request, _) -> ()
  | _ -> Alcotest.fail "a JSON array is not a request");
  (match Protocol.request_of_line {|{"id":1,"method":"ping","params":[1]}|} with
  | Error (Protocol.Invalid_request, _) -> ()
  | _ -> Alcotest.fail "non-object params must be rejected");
  (match Protocol.request_of_line {|{"id":1,"params":{}}|} with
  | Error (Protocol.Invalid_request, _) -> ()
  | _ -> Alcotest.fail "a request without a method must be rejected");
  (* parameter accessors *)
  let params = Ejson.Assoc [ ("s", Ejson.String "x"); ("n", Ejson.Int 3) ] in
  Alcotest.(check string) "string_param" "x" (Protocol.string_param params "s");
  Alcotest.(check int) "int_param" 3 (Protocol.int_param params "n");
  Alcotest.(check bool)
    "bool_param default" true
    (Protocol.bool_param ~default:true params "absent");
  (match Protocol.string_param params "absent" with
  | exception Protocol.Bad_params _ -> ()
  | _ -> Alcotest.fail "missing string parameter must raise Bad_params");
  match Protocol.int_param params "s" with
  | exception Protocol.Bad_params _ -> ()
  | _ -> Alcotest.fail "wrong-typed parameter must raise Bad_params"

(* ---- (b) dispatch error paths ---------------------------------------------------- *)

let test_handler_errors () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  expect_error "unknown method" Protocol.Method_not_found
    (rpc h conn "no_such_method" Ejson.Null);
  expect_error "query before any open" Protocol.Session_not_found
    (rpc h conn "may_alias" (Ejson.Assoc [ ("a", Ejson.Int 0); ("b", Ejson.Int 0) ]));
  expect_error "open without file" Protocol.Invalid_params
    (rpc h conn "open" Ejson.Null);
  expect_error "open of a missing path" Protocol.Frontend_error
    (rpc h conn "open"
       (Ejson.Assoc [ ("file", Ejson.String (Filename.concat dir "absent.c")) ]));
  expect_error "unknown explicit session" Protocol.Session_not_found
    (rpc h conn "purity" (Ejson.Assoc [ ("session", Ejson.String "deadbeef") ]));
  ignore
    (expect_ok "open" (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ])));
  expect_error "may_alias without sides" Protocol.Invalid_params
    (rpc h conn "may_alias" Ejson.Null);
  expect_error "out-of-range node" Protocol.Invalid_params
    (rpc h conn "may_alias"
       (Ejson.Assoc [ ("a", Ejson.Int 999999); ("b", Ejson.Int 0) ]));
  expect_error "unknown function filter" Protocol.Invalid_params
    (rpc h conn "modref" (Ejson.Assoc [ ("function", Ejson.String "nope") ]));
  (* an unparsable line still yields a well-formed error response *)
  (match Handler.handle_line h conn "garbage {" with
  | Handler.Reply r -> (
    match Protocol.response_of_line r with
    | Ok { Protocol.rs_result = Error (Protocol.Parse_error, _); _ } -> ()
    | _ -> Alcotest.fail "garbage line must answer with a parse error")
  | Handler.Reply_shutdown _ -> Alcotest.fail "garbage must not shut the server down")

(* ---- (c) session identity: hits, invalidation, eviction, close ------------------- *)

let test_session_hit_and_stats () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  let params = Ejson.Assoc [ ("file", Ejson.String file) ] in
  let first = expect_ok "first open" (rpc h conn "open" params) in
  Alcotest.(check string)
    "a cold open solves" "miss"
    (string_field "open" "status" first);
  let second = expect_ok "second open" (rpc h conn "open" params) in
  Alcotest.(check string)
    "re-open of an unchanged file is a session hit" "session-hit"
    (string_field "open" "status" second);
  Alcotest.(check string)
    "both opens name the same session"
    (string_field "open" "session" first)
    (string_field "open" "session" second);
  Alcotest.(check int) "one solve" 1 (session_stat sessions "solved");
  Alcotest.(check int) "one session hit" 1 (session_stat sessions "session_hits");
  (* the stats method reflects the traffic *)
  let stats = expect_ok "stats" (rpc h conn "stats" Ejson.Null) in
  Alcotest.(check bool)
    "requests counted" true
    (int_field "stats" "requests" stats >= 2);
  let opens = member_exn "stats" "open" (member_exn "stats" "methods" stats) in
  Alcotest.(check int) "open latency samples" 2 (int_field "stats" "count" opens);
  (* a v6 client's "jobs" is accepted and ignored: a cold open on a fresh
     daemon yields the same session and solution as the plain open *)
  let h' = Handler.create (Session.create ()) in
  let wide =
    expect_ok "open with jobs"
      (rpc h' (Handler.new_conn ()) "open"
         (Ejson.Assoc [ ("file", Ejson.String file); ("jobs", Ejson.Int 8) ]))
  in
  Alcotest.(check string) "jobs open solves" "miss" (string_field "open" "status" wide);
  Alcotest.(check string)
    "jobs open: same session"
    (string_field "open" "session" first)
    (string_field "open" "session" wide);
  Alcotest.(check string)
    "jobs open: same solution digest"
    (string_field "open" "solution_digest" first)
    (string_field "open" "solution_digest" wide);
  Alcotest.(check bool)
    "no parallel block" true
    (Ejson.member "parallel" wide = None)

let test_invalidation_on_change () =
  let dir = fresh_dir () in
  let file = temp_c dir "prog.c" conflict_src in
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  let params = Ejson.Assoc [ ("file", Ejson.String file) ] in
  let first = expect_ok "open v1" (rpc h conn "open" params) in
  let id1 = string_field "open" "session" first in
  write_file file disjoint_src;
  let second = expect_ok "open v2" (rpc h conn "open" params) in
  let id2 = string_field "open" "session" second in
  Alcotest.(check bool) "changed content gets a new session" true (id1 <> id2);
  Alcotest.(check string)
    "changed content re-solves" "miss"
    (string_field "open" "status" second);
  Alcotest.(check bool)
    "the stale session is dropped" true
    (Session.find sessions id1 = None);
  Alcotest.(check int) "invalidation counted" 1
    (session_stat sessions "invalidated");
  expect_error "querying the stale id" Protocol.Session_not_found
    (rpc h conn "purity" (Ejson.Assoc [ ("session", Ejson.String id1) ]))

let test_lru_eviction () =
  let dir = fresh_dir () in
  let f1 = temp_c dir "one.c" conflict_src in
  let f2 = temp_c dir "two.c" disjoint_src in
  let sessions = Session.create ~max_entries:1 () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  let open1 =
    expect_ok "open one" (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String f1) ]))
  in
  let id1 = string_field "open" "session" open1 in
  ignore
    (expect_ok "open two"
       (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String f2) ])));
  Alcotest.(check int) "working set bounded" 1 (Session.live sessions);
  Alcotest.(check bool)
    "the older session was evicted" true
    (Session.find sessions id1 = None);
  Alcotest.(check int) "eviction counted" 1 (session_stat sessions "evicted")

let test_close () =
  let dir = fresh_dir () in
  let file = temp_c dir "prog.c" conflict_src in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  let opened =
    expect_ok "open" (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ]))
  in
  let id = string_field "open" "session" opened in
  let closed = expect_ok "close" (rpc h conn "close" Ejson.Null) in
  Alcotest.(check bool) "close drops the default session" true
    (bool_field "close" "closed" closed);
  let again =
    expect_ok "close again"
      (rpc h conn "close" (Ejson.Assoc [ ("session", Ejson.String id) ]))
  in
  Alcotest.(check bool) "second close is a no-op" false
    (bool_field "close" "closed" again);
  expect_error "query after close" Protocol.Session_not_found
    (rpc h conn "purity" Ejson.Null)

(* ---- (d) verdicts match direct library invocation -------------------------------- *)

let test_verdicts_match_direct () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  ignore
    (expect_ok "open" (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ])));
  let a = Test_util.analysis (Engine.load_file file) in
  let nodes =
    List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid)
      (Vdg.indirect_memops a.Engine.graph)
  in
  Alcotest.(check bool) "the program has indirect ops" true (nodes <> []);
  (* every pair answers exactly as Query.may_alias *)
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let reply =
            expect_ok "may_alias"
              (rpc h conn "may_alias"
                 (Ejson.Assoc [ ("a", Ejson.Int x); ("b", Ejson.Int y) ]))
          in
          Alcotest.(check bool)
            (Printf.sprintf "may_alias(%d,%d)" x y)
            (Query.may_alias a.Engine.ci x y)
            (bool_field "may_alias" "may_alias" reply))
        nodes)
    nodes;
  (* conflicts: same total as Query.conflicts_in over every function *)
  let modref = Modref.of_ci a.Engine.ci in
  let direct_conflicts =
    List.fold_left
      (fun acc fd ->
        let f = fd.Sil.fd_name in
        if f = Sil.global_init_name then acc
        else acc + List.length (Query.conflicts_in modref f))
      0 a.Engine.prog.Sil.p_functions
  in
  let conflicts = expect_ok "conflicts" (rpc h conn "conflicts" Ejson.Null) in
  Alcotest.(check int)
    "conflict count matches Query.conflicts_in" direct_conflicts
    (int_field "conflicts" "count" conflicts);
  Alcotest.(check bool)
    "the aliased writes are reported" true
    (direct_conflicts > 0);
  (* lint: delta and diagnostic count match a direct Lint.run *)
  let report = Lint.run ~compare_cs:true a in
  let lint =
    expect_ok "lint" (rpc h conn "lint" (Ejson.Assoc [ ("cs", Ejson.Bool true) ]))
  in
  Alcotest.(check int)
    "lint delta matches" (Lint.delta_count report)
    (int_field "lint" "delta" lint);
  (match member_exn "lint" "diagnostics" lint with
  | Ejson.List ds ->
    Alcotest.(check int)
      "lint diagnostic count matches"
      (List.length report.Lint.rp_diags)
      (List.length ds)
  | _ -> Alcotest.fail "lint diagnostics must be a list");
  (* purity: same classification per function *)
  let purity = expect_ok "purity" (rpc h conn "purity" Ejson.Null) in
  match member_exn "purity" "functions" purity with
  | Ejson.Assoc fns ->
    List.iter
      (fun (f, v) ->
        let direct =
          match Query.classify_purity a.Engine.graph a.Engine.ci f with
          | Query.Pure -> "pure"
          | Query.Impure_writes -> "impure-writes"
          | Query.Impure_calls ext -> "impure-calls:" ^ ext
        in
        match v with
        | Ejson.String s ->
          Alcotest.(check string) (Printf.sprintf "purity of %s" f) direct s
        | _ -> Alcotest.fail "purity verdict must be a string")
      fns
  | _ -> Alcotest.fail "purity functions must be an object"

let test_may_alias_by_line () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  ignore
    (expect_ok "open" (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ])));
  (* lines 5 and 6 are *p and *q inside bump: both may point to shared *)
  let reply =
    expect_ok "may_alias by line"
      (rpc h conn "may_alias"
         (Ejson.Assoc [ ("a_line", Ejson.Int 5); ("b_line", Ejson.Int 6) ]))
  in
  Alcotest.(check bool)
    "*p and *q may alias" true
    (bool_field "may_alias" "may_alias" reply);
  expect_error "a line with no indirect operation" Protocol.Invalid_params
    (rpc h conn "may_alias"
       (Ejson.Assoc [ ("a_line", Ejson.Int 1); ("b_line", Ejson.Int 6) ]))

(* ---- (e) engine cache maintenance ------------------------------------------------ *)

let bin_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")

let test_cache_purges_corrupt_entries () =
  let dir = fresh_dir () in
  let c1 = Engine_cache.create dir in
  let key = Engine_cache.key ~source:"int x;" ~fingerprint:"cfg" in
  Engine_cache.store_disk c1 key "payload";
  Alcotest.(check int) "one entry on disk" 1 (List.length (bin_files dir));
  (match Engine_cache.find_disk c1 key with
  | Some "payload" -> ()
  | _ -> Alcotest.fail "a healthy entry must read back");
  (* corrupt the entry on disk; a fresh cache must purge it *)
  (match bin_files dir with
  | [ f ] -> write_file (Filename.concat dir f) "not a marshal payload"
  | _ -> Alcotest.fail "expected exactly one cache file");
  let c2 = Engine_cache.create dir in
  (match (Engine_cache.find_disk c2 key : string option) with
  | None -> ()
  | Some _ -> Alcotest.fail "a corrupt entry must be a miss");
  Alcotest.(check int) "the corrupt file was deleted" 0
    (List.length (bin_files dir));
  Alcotest.(check int) "purge counted" 1 (Engine_cache.stats c2).Engine_cache.purged

let test_cache_prune () =
  let dir = fresh_dir () in
  let c = Engine_cache.create dir in
  List.iter
    (fun i ->
      Engine_cache.store_disk c
        (Engine_cache.key ~source:(string_of_int i) ~fingerprint:"cfg")
        (String.make 256 'x'))
    [ 1; 2; 3 ];
  Alcotest.(check int) "three entries stored" 3 (List.length (bin_files dir));
  let deleted = Engine_cache.prune c ~max_bytes:0 in
  Alcotest.(check int) "prune deletes everything over the budget" 3 deleted;
  Alcotest.(check int) "disk is empty" 0 (List.length (bin_files dir))

let test_latency_summary () =
  Alcotest.(check (float 1e-9))
    "median of four" 2.5
    (Telemetry.percentile [| 1.; 2.; 3.; 4. |] 0.5);
  Alcotest.(check (float 1e-9))
    "p0 is the minimum" 1.
    (Telemetry.percentile [| 1.; 2.; 3.; 4. |] 0.);
  Alcotest.(check (float 1e-9))
    "p100 is the maximum" 4.
    (Telemetry.percentile [| 1.; 2.; 3.; 4. |] 1.);
  Alcotest.(check (float 1e-9)) "empty is zero" 0. (Telemetry.percentile [||] 0.5);
  let l = Telemetry.summarize [ 3.; 1.; 2. ] in
  Alcotest.(check int) "count" 3 l.Telemetry.l_count;
  Alcotest.(check (float 1e-9)) "total" 6. l.Telemetry.l_total;
  Alcotest.(check (float 1e-9)) "p50" 2. l.Telemetry.l_p50;
  Alcotest.(check (float 1e-9)) "max" 3. l.Telemetry.l_max

(* ---- (f) two clients over a real socket ------------------------------------------ *)

let test_socket_two_clients () =
  let dir = fresh_dir () in
  let f1 = temp_c dir "one.c" conflict_src in
  let f2 = temp_c dir "two.c" disjoint_src in
  let socket = Filename.concat dir "alias.sock" in
  let handler = Handler.create (Session.create ()) in
  let server = Domain.spawn (fun () -> Server.serve_unix ~jobs:2 handler socket) in
  let client file rounds =
    Domain.spawn (fun () ->
        let c = Client.connect ~retry_for:10. socket in
        let ok = ref 0 in
        (match
           Client.call c ~meth:"open"
             ~params:(Ejson.Assoc [ ("file", Ejson.String file) ])
         with
        | Ok _ -> incr ok
        | Error _ -> ());
        for _ = 1 to rounds do
          (* no session parameter: exercises the per-connection default *)
          match Client.call c ~meth:"conflicts" ~params:Ejson.Null with
          | Ok _ -> incr ok
          | Error _ -> ()
        done;
        Client.close c;
        !ok)
  in
  let a = client f1 10 and b = client f2 10 in
  Alcotest.(check int) "client A: all calls answered" 11 (Domain.join a);
  Alcotest.(check int) "client B: all calls answered" 11 (Domain.join b);
  Alcotest.(check int) "both programs stayed live" 2
    (Session.live (Handler.sessions handler));
  (* a third client asks the daemon to stop; the accept loop must wind down *)
  let stopper = Client.connect ~retry_for:5. socket in
  (match Client.call stopper ~meth:"shutdown" ~params:Ejson.Null with
  | Ok reply ->
    Alcotest.(check bool) "shutdown acknowledged" true
      (bool_field "shutdown" "stopping" reply)
  | Error (_, msg) -> Alcotest.failf "shutdown failed: %s" msg);
  Domain.join server;
  Client.close stopper;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* ---- (g) resource governance: versioning, deadlines, cancellation ---------------- *)

let rpc_full h conn meth params =
  let line = Protocol.request_line ~meth ~params () in
  match Handler.handle_line h conn line with
  | Handler.Reply r | Handler.Reply_shutdown r -> (
    match Protocol.response_of_line r with
    | Ok rs -> rs
    | Error msg -> Alcotest.failf "unparsable response line %S: %s" r msg)

let test_protocol_versioning () =
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  (* ping advertises the protocol version and its capabilities *)
  let pong = expect_ok "ping" (rpc h conn "ping" Ejson.Null) in
  Alcotest.(check int)
    "version advertised" Protocol.protocol_version
    (int_field "ping" "protocol_version" pong);
  (match member_exn "ping" "capabilities" pong with
  | Ejson.List caps ->
    Alcotest.(check bool)
      "budgets capability listed" true
      (List.mem (Ejson.String "budgets") caps);
    (* the CI solve is always sequential: nothing to advertise *)
    Alcotest.(check bool)
      "parallel capability no longer listed" false
      (List.mem (Ejson.String "parallel") caps)
  | _ -> Alcotest.fail "capabilities must be a list");
  (* explicit v1 and v2 are both accepted *)
  List.iter
    (fun v ->
      ignore
        (expect_ok
           (Printf.sprintf "ping v%d" v)
           (rpc h conn "ping" (Ejson.Assoc [ ("protocol", Ejson.Int v) ]))))
    [ 1; Protocol.protocol_version ];
  (* a future version is refused with a structured error *)
  let rs =
    rpc_full h conn "ping" (Ejson.Assoc [ ("protocol", Ejson.Int 99) ])
  in
  (match rs.Protocol.rs_result with
  | Error (Protocol.Unsupported_version, _) -> ()
  | Error (code, _) ->
    Alcotest.failf "wrong code: %s" (Protocol.string_of_error_code code)
  | Ok _ -> Alcotest.fail "version 99 must be refused");
  match rs.Protocol.rs_error_data with
  | Some data ->
    Alcotest.(check int) "requested echoed" 99 (int_field "data" "requested" data);
    Alcotest.(check int)
      "supported version named" Protocol.protocol_version
      (int_field "data" "supported" data)
  | None -> Alcotest.fail "version refusal must carry structured data"

(* A program large enough that its solves cannot finish inside a 1ms
   deadline (and take long enough to cancel mid-flight): a deep chain of
   functions threading pointers to distinct globals. *)
let slow_src n =
  let b = Buffer.create (n * 120) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "int cell%d; int *slot%d;\n" i i)
  done;
  Buffer.add_string b (Printf.sprintf "int f%d(int i) { return i; }\n" n);
  for i = n - 1 downto 0 do
    Buffer.add_string b
      (Printf.sprintf
         "int f%d(int i) { slot%d = &cell%d; *slot%d = f%d(i) + 1; return \
          *slot%d + i; }\n"
         i i i i (i + 1) i)
  done;
  Buffer.add_string b "int main(void) { return f0(1); }\n";
  Buffer.contents b

let test_deadline_degrades_and_upgrades () =
  let dir = fresh_dir () in
  let file = temp_c dir "slow.c" (slow_src 150) in
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  let t0 = Unix.gettimeofday () in
  let opened =
    expect_ok "governed open"
      (rpc h conn "open"
         (Ejson.Assoc
            [ ("file", Ejson.String file); ("deadline_ms", Ejson.Int 1) ]))
  in
  let answered_in = Unix.gettimeofday () -. t0 in
  let tier = string_field "open" "tier" opened in
  Alcotest.(check bool)
    (Printf.sprintf "1ms deadline lands below ci (got %s)" tier)
    true
    (tier = "steensgaard" || tier = "andersen");
  (match member_exn "open" "degradations" opened with
  | Ejson.List (_ :: _) -> ()
  | _ -> Alcotest.fail "a degraded open must report its ladder descents");
  Alcotest.(check bool)
    (Printf.sprintf "deadline-bounded open answered promptly (%.3fs)" answered_in)
    true (answered_in < 10.);
  Alcotest.(check bool)
    "degradations counted" true
    (session_stat sessions "degradations" > 0);
  (* line-keyed queries still answer at the degraded tier: f0's body
     (stores and reads *slot0) sits on line n_globals + 1 + n_functions *)
  let f0_line = 150 + 1 + 150 in
  let reply =
    expect_ok "baseline may_alias"
      (rpc h conn "may_alias"
         (Ejson.Assoc
            [ ("a_line", Ejson.Int f0_line); ("b_line", Ejson.Int f0_line) ]))
  in
  Alcotest.(check bool)
    "self-alias at baseline tier" true
    (bool_field "may_alias" "may_alias" reply);
  (* node-keyed queries need the VDG: structured tier-unavailable *)
  expect_error "node query below ci" Protocol.Tier_unavailable
    (rpc h conn "points_to" (Ejson.Assoc [ ("node", Ejson.Int 0) ]));
  (* an undeadlined re-open refuses the coarse session and upgrades it *)
  let reopened =
    expect_ok "upgrade open"
      (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ]))
  in
  Alcotest.(check string)
    "upgraded to full precision" "ci"
    (string_field "open" "tier" reopened);
  Alcotest.(check int) "upgrade counted" 1 (session_stat sessions "upgraded");
  (* now that the session is full-tier, a deadlined re-open is a hit:
     the floor (steensgaard under a deadline) is already satisfied *)
  let third =
    expect_ok "deadlined re-open"
      (rpc h conn "open"
         (Ejson.Assoc
            [ ("file", Ejson.String file); ("deadline_ms", Ejson.Int 1) ]))
  in
  Alcotest.(check string)
    "full session satisfies the floor" "session-hit"
    (string_field "open" "status" third)

let test_deadline_floor_error_keeps_server_healthy () =
  let dir = fresh_dir () in
  let file = temp_c dir "slow.c" (slow_src 150) in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  (* floor ci + 1ms deadline: the solve cannot fit and may not degrade *)
  let rs =
    rpc_full h conn "open"
      (Ejson.Assoc
         [
           ("file", Ejson.String file); ("deadline_ms", Ejson.Int 1);
           ("min_tier", Ejson.String "ci");
         ])
  in
  (match rs.Protocol.rs_result with
  | Error (Protocol.Budget_exhausted, _) -> ()
  | Error (code, _) ->
    Alcotest.failf "wrong code: %s" (Protocol.string_of_error_code code)
  | Ok _ -> Alcotest.fail "a 1ms ci-floor open must exhaust its budget");
  (match rs.Protocol.rs_error_data with
  | Some data ->
    Alcotest.(check string)
      "error data kind" "budget-exhausted"
      (string_field "data" "error" data)
  | None -> Alcotest.fail "budget exhaustion must carry structured data");
  (* the server survives: the same connection keeps answering *)
  ignore (expect_ok "ping after failure" (rpc h conn "ping" Ejson.Null))

let test_may_alias_cs_deadline_falls_back () =
  let dir = fresh_dir () in
  let file = temp_c dir "slow.c" (slow_src 150) in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  ignore
    (expect_ok "open"
       (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ])));
  let a = Test_util.analysis (Engine.load_file file) in
  let nodes =
    List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid)
      (Vdg.indirect_memops a.Engine.graph)
  in
  let x = List.nth nodes 0 and y = List.nth nodes 1 in
  let reply =
    expect_ok "cs may_alias under deadline"
      (rpc h conn "may_alias"
         (Ejson.Assoc
            [
              ("a", Ejson.Int x); ("b", Ejson.Int y);
              ("tier", Ejson.String "cs"); ("deadline_ms", Ejson.Int 1);
            ]))
  in
  Alcotest.(check string)
    "fell back to the ci tier" "ci"
    (string_field "may_alias" "tier" reply);
  Alcotest.(check bool)
    "marked degraded" true
    (bool_field "may_alias" "degraded" reply);
  Alcotest.(check bool)
    "fallback verdict is the ci verdict"
    (Query.may_alias a.Engine.ci x y)
    (bool_field "may_alias" "may_alias" reply);
  (* without a deadline the cs verdict is computed for real *)
  let full =
    expect_ok "cs may_alias unbudgeted"
      (rpc h conn "may_alias"
         (Ejson.Assoc
            [ ("a", Ejson.Int x); ("b", Ejson.Int y); ("tier", Ejson.String "cs") ]))
  in
  Alcotest.(check string)
    "cs tier achieved" "cs"
    (string_field "may_alias" "tier" full)

let test_close_cancels_inflight () =
  let dir = fresh_dir () in
  let file = temp_c dir "slow.c" (slow_src 400) in
  let sessions = Session.create () in
  let solver =
    Domain.spawn (fun () ->
        match Session.open_path ~deadline_s:300. sessions file with
        | _ -> `Completed
        | exception Session.Engine_error Engine.Cancelled -> `Cancelled
        | exception _ -> `Other)
  in
  (* wait for the solve to register its budget, then close it by path *)
  let rec wait_inflight n =
    if n = 0 then false
    else if session_stat sessions "inflight" > 0 then true
    else begin
      Unix.sleepf 0.0002;
      wait_inflight (n - 1)
    end
  in
  let seen = wait_inflight 50_000 in
  Alcotest.(check bool) "in-flight solve observed" true seen;
  Alcotest.(check bool)
    "close cancels the in-flight solve" true
    (Session.close_path sessions file);
  (match Domain.join solver with
  | `Cancelled -> ()
  | `Completed -> Alcotest.fail "the open completed despite cancellation"
  | `Other -> Alcotest.fail "the open failed with the wrong exception");
  Alcotest.(check bool)
    "cancellation counted" true
    (session_stat sessions "cancelled" > 0);
  Alcotest.(check int) "nothing left in flight" 0
    (session_stat sessions "inflight")

(* ---- (h) wire compatibility: the "demand" and "dyck" spellings ------------------ *)

(* The demand (v3) and dyck (v4) tiers are gone, but their spellings
   still parse: mode="demand" or mode="dyck" opens an ordinary exhaustive
   session, and tier= or min_tier= either spelling answers at ci — whose
   verdicts demand always equaled, and the nearest tier that keeps a dyck
   floor's promise.  A re-open under the other spelling lands on the
   same session. *)
let test_demand_spellings_answer_at_ci () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let a = Test_util.analysis (Engine.load_file file) in
  let nodes =
    List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid)
      (Vdg.indirect_memops a.Engine.graph)
  in
  Alcotest.(check bool) "the program has indirect ops" true (nodes <> []);
  List.iter
    (fun (spelling, other) ->
      let sessions = Session.create () in
      let h = Handler.create sessions in
      let conn = Handler.new_conn () in
      let pong = expect_ok "ping" (rpc h conn "ping" Ejson.Null) in
      (match member_exn "ping" "capabilities" pong with
      | Ejson.List caps ->
        Alcotest.(check bool)
          (spelling ^ " capability no longer listed") false
          (List.mem (Ejson.String spelling) caps)
      | _ -> Alcotest.fail "capabilities must be a list");
      let opened =
        expect_ok (spelling ^ " open")
          (rpc h conn "open"
             (Ejson.Assoc
                [ ("file", Ejson.String file); ("mode", Ejson.String spelling) ]))
      in
      Alcotest.(check string)
        "cold open is a miss" "miss"
        (string_field "open" "status" opened);
      Alcotest.(check string)
        (Printf.sprintf "a %s open solves exhaustively" spelling) "ci"
        (string_field "open" "tier" opened);
      let id = string_field "open" "session" opened in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let reply =
                expect_ok (spelling ^ "-tier may_alias")
                  (rpc h conn "may_alias"
                     (Ejson.Assoc
                        [
                          ("a", Ejson.Int x); ("b", Ejson.Int y);
                          ("tier", Ejson.String spelling);
                          ("min_tier", Ejson.String spelling);
                        ]))
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s may_alias(%d,%d) matches exhaustive"
                   spelling x y)
                (Query.may_alias a.Engine.ci x y)
                (bool_field "may_alias" "may_alias" reply);
              Alcotest.(check string)
                "answered at the ci tier" "ci"
                (string_field "may_alias" "tier" reply))
            nodes)
        nodes;
      let stats = expect_ok "stats" (rpc h conn "stats" Ejson.Null) in
      Alcotest.(check bool)
        ("no " ^ spelling ^ " block in stats") true
        (Ejson.member spelling stats = None);
      Alcotest.(check int)
        "answers counted under ci"
        (List.length nodes * List.length nodes)
        (int_field "answers_by_tier" "ci"
           (member_exn "stats" "answers_by_tier" stats));
      (* the session is exhaustive: a re-open under the other spelling,
         or under none, is an ordinary hit *)
      List.iter
        (fun (what, params) ->
          let reopened =
            expect_ok what
              (rpc h conn "open"
                 (Ejson.Assoc (("file", Ejson.String file) :: params)))
          in
          Alcotest.(check string)
            (what ^ ": same session") id
            (string_field "open" "session" reopened);
          Alcotest.(check string)
            (what ^ ": session hit") "session-hit"
            (string_field "open" "status" reopened))
        [
          ( other ^ " re-open",
            [ ("mode", Ejson.String other); ("min_tier", Ejson.String other) ] );
          ("exhaustive re-open", []);
        ];
      Alcotest.(check int) "exactly one solve" 1 (session_stat sessions "solved"))
    [ ("demand", "dyck"); ("dyck", "demand") ]

(* ---- (j) incremental update (protocol v5) ---------------------------------------- *)

let chain_src =
  {|int g1;
int g2;

int *id(int *p) { return p; }

int *pick(int *p, int *q) {
  if (*p) return p;
  return q;
}

int *spare(void) { return &g2; }

int main(void) {
  int *a = id(&g1);
  int *b = pick(a, &g2);
  int *s = spare();
  *b = 1;
  return *a + *s;
}
|}

(* same interface, different body: spare's digest changes, its summary
   (returns &g2) does not *)
let chain_src_edited =
  {|int g1;
int g2;

int *id(int *p) { return p; }

int *pick(int *p, int *q) {
  if (*p) return p;
  return q;
}

int *spare(void) { int *t; t = &g2; return t; }

int main(void) {
  int *a = id(&g1);
  int *b = pick(a, &g2);
  int *s = spare();
  *b = 1;
  return *a + *s;
}
|}

let test_update_in_place () =
  let dir = fresh_dir () in
  let file = temp_c dir "chain.c" chain_src in
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  (* the capability rides on ping *)
  let pong = expect_ok "ping" (rpc h conn "ping" Ejson.Null) in
  (match member_exn "ping" "capabilities" pong with
  | Ejson.List caps ->
    Alcotest.(check bool)
      "incremental capability advertised" true
      (List.mem (Ejson.String "incremental") caps)
  | _ -> Alcotest.fail "capabilities must be a list");
  let params = Ejson.Assoc [ ("file", Ejson.String file) ] in
  let opened = expect_ok "open" (rpc h conn "open" params) in
  let id1 = string_field "open" "session" opened in
  (* a no-op update re-solves nothing: every procedure's digest matches *)
  let noop = expect_ok "noop update" (rpc h conn "update" params) in
  Alcotest.(check string)
    "unchanged content keeps the id" id1
    (string_field "update" "session" noop);
  Alcotest.(check int)
    "nothing dirty" 0
    (int_field "update" "incr_dirty_initial" noop);
  Alcotest.(check int)
    "nothing re-solved" 0
    (int_field "update" "incr_resolved" noop);
  Alcotest.(check int)
    "everything reused"
    (int_field "update" "incr_procs_total" noop)
    (int_field "update" "incr_reused" noop);
  (* edit one leaf on disk; only its region re-solves *)
  write_file file chain_src_edited;
  let upd = expect_ok "update" (rpc h conn "update" params) in
  let id2 = string_field "update" "session" upd in
  Alcotest.(check bool) "content change renames the session" true (id1 <> id2);
  let total = int_field "update" "incr_procs_total" upd in
  let resolved = int_field "update" "incr_resolved" upd in
  let reused = int_field "update" "incr_reused" upd in
  Alcotest.(check bool)
    "one procedure dirtied" true
    (int_field "update" "incr_dirty_initial" upd = 1);
  Alcotest.(check bool) "something re-solved" true (resolved >= 1);
  Alcotest.(check bool) "something reused" true (reused >= 1);
  Alcotest.(check int) "region + splice covers the program" total
    (resolved + reused);
  Alcotest.(check bool)
    "not a full fallback" false
    (bool_field "update" "incr_full_fallback" upd);
  (match member_exn "update" "resolved_procedures" upd with
  | Ejson.List procs ->
    Alcotest.(check bool)
      "spare was re-solved" true
      (List.mem (Ejson.String "spare") procs)
  | _ -> Alcotest.fail "resolved_procedures must be a list");
  (* the updated entry serves the working set under its new identity *)
  let reopened = expect_ok "re-open" (rpc h conn "open" params) in
  Alcotest.(check string)
    "re-open lands on the updated session" id2
    (string_field "open" "session" reopened);
  Alcotest.(check string)
    "as a session hit" "session-hit"
    (string_field "open" "status" reopened);
  (* and still answers queries *)
  ignore (expect_ok "purity after update" (rpc h conn "purity" Ejson.Null));
  Alcotest.(check int) "updates counted" 2 (session_stat sessions "updated")

(* conflict_src with the aliasing call gone: *p and *q in bump (lines 5
   and 6) target disjoint globals until an edit reintroduces it *)
let separated_src =
  {|int shared;
int other;

void bump(int *p, int *q) {
  *p = *p + 1;
  *q = *q + 1;
}

int main(void) {
  bump(&shared, &other);
  return shared;
}
|}

let test_update_source_param () =
  let dir = fresh_dir () in
  let file = temp_c dir "separated.c" separated_src in
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  let params = Ejson.Assoc [ ("file", Ejson.String file) ] in
  ignore (expect_ok "open" (rpc h conn "open" params));
  let alias_params =
    Ejson.Assoc [ ("a_line", Ejson.Int 5); ("b_line", Ejson.Int 6) ]
  in
  let before = expect_ok "may_alias before" (rpc h conn "may_alias" alias_params) in
  Alcotest.(check bool)
    "p and q disjoint before the edit" false
    (bool_field "may_alias" "may_alias" before);
  (* a client editing a buffer: the "source" param overrides the disk *)
  let edited =
    let b = Buffer.create (String.length separated_src) in
    String.split_on_char '\n' separated_src
    |> List.iter (fun line ->
           Buffer.add_string b
             (if String.equal line "  bump(&shared, &other);" then
                "  bump(&shared, &shared);"
              else line);
           Buffer.add_char b '\n');
    Buffer.contents b
  in
  let upd =
    expect_ok "update from buffer"
      (rpc h conn "update"
         (Ejson.Assoc
            [ ("file", Ejson.String file); ("source", Ejson.String edited) ]))
  in
  Alcotest.(check bool)
    "main was re-solved" true
    (int_field "update" "incr_resolved" upd >= 1);
  let after = expect_ok "may_alias after" (rpc h conn "may_alias" alias_params) in
  Alcotest.(check bool)
    "p and q alias after the edit" true
    (bool_field "may_alias" "may_alias" after)

let test_update_errors () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  (* no session at all: nothing to name the file either *)
  expect_error "update without a session" Protocol.Invalid_params
    (rpc h conn "update" Ejson.Null);
  (* a file that was never opened has nothing to splice from *)
  expect_error "update before open" Protocol.Session_not_found
    (rpc h conn "update" (Ejson.Assoc [ ("file", Ejson.String file) ]));
  (* an unreadable path fails like any other load *)
  expect_error "update of a missing file" Protocol.Frontend_error
    (rpc h conn "update"
       (Ejson.Assoc [ ("file", Ejson.String (Filename.concat dir "no.c")) ]));
  (* a session degraded to a baseline has no ci solution to diff against *)
  let slow_file = temp_c dir "slow.c" (slow_src 150) in
  let opened =
    expect_ok "deadlined open"
      (rpc h conn "open"
         (Ejson.Assoc
            [ ("file", Ejson.String slow_file); ("deadline_ms", Ejson.Int 1) ]))
  in
  Alcotest.(check bool)
    "1ms deadline lands below ci" true
    (string_field "open" "tier" opened <> "ci");
  expect_error "update of a baseline session" Protocol.Tier_unavailable
    (rpc h conn "update" (Ejson.Assoc [ ("file", Ejson.String slow_file) ]))

let test_client_timeout_on_dead_daemon () =
  let dir = fresh_dir () in
  (* a daemon that accepts and then hangs: reads must time out *)
  let hung = Filename.concat dir "hung.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX hung);
  Unix.listen srv 1;
  let accepter =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        Unix.sleepf 2.;
        Unix.close fd)
  in
  let c = Client.connect ~retry_for:5. ~timeout:0.2 hung in
  (match Client.call c ~meth:"ping" ~params:Ejson.Null with
  | exception Client.Connection_lost _ -> ()
  | exception e ->
    Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a hung daemon must time the read out");
  Client.close c;
  Domain.join accepter;
  Unix.close srv;
  (* a daemon that dies mid-session: reads must fail fast, not hang *)
  let dead = Filename.concat dir "dead.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX dead);
  Unix.listen srv 1;
  let killer =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        Unix.close fd)
  in
  let c = Client.connect ~retry_for:5. ~timeout:5. dead in
  Domain.join killer;
  (match Client.call c ~meth:"ping" ~params:Ejson.Null with
  | exception Client.Connection_closed -> ()
  | exception e ->
    Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a dead daemon must surface as a closed connection");
  Client.close c;
  Unix.close srv

(* ---- (h) protocol v6: batch envelope, query opts, pipelining, restarts ---------- *)

let mk_request id meth params =
  { Protocol.rq_id = Ejson.Int id; rq_method = meth; rq_params = params }

let test_batch_envelope_codec () =
  (* a single object still parses as a Single envelope *)
  (match
     Protocol.envelope_of_line
       (Protocol.request_line ~id:1 ~meth:"ping" ~params:Ejson.Null ())
   with
  | Ok (Protocol.Single rq) ->
    Alcotest.(check string) "single method" "ping" rq.Protocol.rq_method
  | Ok (Protocol.Batch _) -> Alcotest.fail "an object must not parse as a batch"
  | Error (_, msg) -> Alcotest.failf "single parse failed: %s" msg);
  (* a batch line round-trips, preserving element order *)
  let reqs =
    [ mk_request 1 "ping" Ejson.Null; mk_request 2 "stats" Ejson.Null ]
  in
  (match Protocol.envelope_of_line (Protocol.batch_line reqs) with
  | Ok (Protocol.Batch [ Ok a; Ok b ]) ->
    Alcotest.(check string) "first element" "ping" a.Protocol.rq_method;
    Alcotest.(check string) "second element" "stats" b.Protocol.rq_method
  | Ok _ -> Alcotest.fail "a two-element batch must parse as two elements"
  | Error (_, msg) -> Alcotest.failf "batch parse failed: %s" msg);
  (* whole-line rejections: empty, oversized, non-object elements *)
  let rejected what line =
    match Protocol.envelope_of_line line with
    | Error (Protocol.Invalid_request, _) -> ()
    | Error (code, _) ->
      Alcotest.failf "%s: wrong code %s" what
        (Protocol.string_of_error_code code)
    | Ok _ -> Alcotest.failf "%s must be rejected whole" what
  in
  rejected "empty batch" "[]";
  rejected "non-object element" "[1,2]";
  rejected "oversized batch"
    (Protocol.batch_line
       (List.init (Protocol.max_batch + 1) (fun i ->
            mk_request i "ping" Ejson.Null)));
  (* an object element that is not a valid request degrades to a
     per-element error instead of rejecting its batch *)
  (match
     Protocol.envelope_of_line
       "[{\"id\":3},{\"id\":4,\"method\":\"ping\"}]"
   with
  | Ok (Protocol.Batch [ Error (Protocol.Invalid_request, _); Ok rq ]) ->
    Alcotest.(check string) "valid element survives" "ping" rq.Protocol.rq_method
  | Ok _ -> Alcotest.fail "expected one bad and one good element"
  | Error (_, msg) ->
    Alcotest.failf "a bad element must not reject the batch: %s" msg);
  (* the reply side: an ordered array of response objects on one line *)
  match
    Protocol.batch_responses_of_line
      (Protocol.batch_response
         [
           Protocol.ok_response_json ~id:(Ejson.Int 1) (Ejson.Bool true);
           Protocol.error_response_json ~id:(Ejson.Int 2)
             Protocol.Method_not_found "nope";
         ])
  with
  | Ok [ r1; r2 ] ->
    (match r1.Protocol.rs_result with
    | Ok (Ejson.Bool true) -> ()
    | _ -> Alcotest.fail "first response must carry its result");
    (match r2.Protocol.rs_result with
    | Error (Protocol.Method_not_found, _) -> ()
    | _ -> Alcotest.fail "second response must carry its error")
  | Ok rs -> Alcotest.failf "wrong reply count: %d" (List.length rs)
  | Error msg -> Alcotest.failf "batch reply parse failed: %s" msg

let test_batch_dispatch () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  let line =
    Protocol.batch_line
      [
        mk_request 1 "open" (Ejson.Assoc [ ("file", Ejson.String file) ]);
        (* no session parameter: must see the default set by the open
           earlier in the same batch (in-order evaluation) *)
        mk_request 2 "conflicts" Ejson.Null;
        mk_request 3 "shutdown" Ejson.Null;
        mk_request 4 "no_such_method" Ejson.Null;
      ]
  in
  match Handler.handle_line h conn line with
  | Handler.Reply_shutdown _ ->
    Alcotest.fail "shutdown inside a batch must not stop the server"
  | Handler.Reply r -> (
    match Protocol.batch_responses_of_line r with
    | Error msg -> Alcotest.failf "unparsable batch reply: %s" msg
    | Ok [ r1; r2; r3; r4 ] ->
      List.iteri
        (fun i rs ->
          Alcotest.(check int)
            (Printf.sprintf "id %d echoed in order" (i + 1))
            (i + 1)
            (match rs.Protocol.rs_id with Ejson.Int n -> n | _ -> -1))
        [ r1; r2; r3; r4 ];
      ignore (expect_ok "batched open" r1.Protocol.rs_result : Ejson.t);
      let conflicts = expect_ok "batched conflicts" r2.Protocol.rs_result in
      Alcotest.(check bool)
        "conflicts answered against the batch's own open" true
        (int_field "conflicts" "count" conflicts >= 0);
      expect_error "shutdown refused inside a batch" Protocol.Invalid_request
        r3.Protocol.rs_result;
      expect_error "unknown method still per-element" Protocol.Method_not_found
        r4.Protocol.rs_result
    | Ok rs -> Alcotest.failf "wrong reply count: %d" (List.length rs))

let test_query_opts_codec () =
  let nested =
    Ejson.Assoc
      [
        ( "opts",
          Ejson.Assoc
            [
              ("tier", Ejson.String "cs");
              ("deadline_ms", Ejson.Int 5);
              ("min_tier", Ejson.String "ci");
            ] );
      ]
  in
  let qo = Protocol.query_opts_of_params nested in
  Alcotest.(check (option string)) "nested tier" (Some "cs") qo.Protocol.qo_tier;
  Alcotest.(check (option int)) "nested deadline" (Some 5) qo.Protocol.qo_deadline_ms;
  Alcotest.(check (option string)) "nested floor" (Some "ci") qo.Protocol.qo_min_tier;
  (* v5 clients spell the same knobs as flat parameters *)
  let flat =
    Protocol.query_opts_of_params
      (Ejson.Assoc
         [ ("tier", Ejson.String "cs"); ("deadline_ms", Ejson.Int 5) ])
  in
  Alcotest.(check (option string)) "flat tier" (Some "cs") flat.Protocol.qo_tier;
  Alcotest.(check (option int)) "flat deadline" (Some 5) flat.Protocol.qo_deadline_ms;
  Alcotest.(check (option string)) "flat floor unset" None flat.Protocol.qo_min_tier;
  (* when both spellings appear, the nested object wins field-by-field *)
  let mixed =
    Protocol.query_opts_of_params
      (Ejson.Assoc
         [
           ("tier", Ejson.String "ci");
           ("deadline_ms", Ejson.Int 9);
           ("opts", Ejson.Assoc [ ("tier", Ejson.String "cs") ]);
         ])
  in
  Alcotest.(check (option string)) "nested tier wins" (Some "cs") mixed.Protocol.qo_tier;
  Alcotest.(check (option int))
    "flat deadline survives" (Some 9) mixed.Protocol.qo_deadline_ms;
  (* encode/decode round-trip through params_with_opts *)
  let rt =
    Protocol.query_opts_of_params
      (Protocol.params_with_opts qo [ ("a", Ejson.Int 1) ])
  in
  Alcotest.(check bool) "round-trip preserves every field" true (rt = qo);
  (* no_query_opts encodes to no opts member at all *)
  (match Protocol.params_with_opts Protocol.no_query_opts [ ("a", Ejson.Int 1) ] with
  | Ejson.Assoc fields ->
    Alcotest.(check bool)
      "empty opts omitted" true
      (List.assoc_opt "opts" fields = None)
  | _ -> Alcotest.fail "params_with_opts must build an object");
  (* type mismatches raise Bad_params in either spelling *)
  match
    Protocol.query_opts_of_params
      (Ejson.Assoc
         [ ("opts", Ejson.Assoc [ ("deadline_ms", Ejson.String "x") ]) ])
  with
  | exception Protocol.Bad_params _ -> ()
  | _ -> Alcotest.fail "a mistyped nested knob must raise Bad_params"

(* Only a tier that can run the CS solver sends a session-keyed query to
   the pool.  tier="ci" reads the live solution, and so do its retired
   spellings "demand" and "dyck": they stay inline on the reactor, like
   a plain query. *)
let test_heavy_request_tiers () =
  let may_alias params =
    {
      Protocol.rq_id = Ejson.Int 1;
      rq_method = "may_alias";
      rq_params =
        Ejson.Assoc
          ([ ("session", Ejson.String "s"); ("a", Ejson.Int 1); ("b", Ejson.Int 2) ]
          @ params);
    }
  in
  let flat tier = may_alias [ ("tier", Ejson.String tier) ] in
  let nested tier =
    may_alias [ ("opts", Ejson.Assoc [ ("tier", Ejson.String tier) ]) ]
  in
  Alcotest.(check bool)
    "plain may_alias is light" false
    (Handler.heavy_request (may_alias []));
  List.iter
    (fun tier ->
      Alcotest.(check bool)
        ("flat tier=" ^ tier ^ " is light") false
        (Handler.heavy_request (flat tier));
      Alcotest.(check bool)
        ("nested opts.tier=" ^ tier ^ " is light") false
        (Handler.heavy_request (nested tier)))
    [ "ci"; "demand"; "dyck" ];
  Alcotest.(check bool)
    "flat tier=cs is heavy" true
    (Handler.heavy_request (flat "cs"));
  Alcotest.(check bool)
    "nested opts.tier=cs is heavy" true
    (Handler.heavy_request (nested "cs"))

let test_batched_matches_unbatched () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let h = Handler.create (Session.create ()) in
  let conn = Handler.new_conn () in
  ignore
    (expect_ok "open"
       (rpc h conn "open" (Ejson.Assoc [ ("file", Ejson.String file) ]))
      : Ejson.t);
  (* every deterministic query method, with representative params *)
  let queries =
    [
      ("may_alias", Ejson.Assoc [ ("a", Ejson.Int 0); ("b", Ejson.Int 1) ]);
      ("points_to", Ejson.Assoc [ ("node", Ejson.Int 0) ]);
      ("modref", Ejson.Null);
      ("purity", Ejson.Null);
      ("conflicts", Ejson.Null);
      ("lint", Ejson.Null);
    ]
  in
  let unbatched =
    List.map
      (fun (meth, params) ->
        Ejson.to_compact_string (expect_ok meth (rpc h conn meth params)))
      queries
  in
  let line =
    Protocol.batch_line
      (List.mapi (fun i (meth, params) -> mk_request i meth params) queries)
  in
  match Handler.handle_line h conn line with
  | Handler.Reply_shutdown _ -> Alcotest.fail "a query batch must not shut down"
  | Handler.Reply r -> (
    match Protocol.batch_responses_of_line r with
    | Error msg -> Alcotest.failf "unparsable batch reply: %s" msg
    | Ok rs ->
      Alcotest.(check int)
        "one response per query" (List.length queries) (List.length rs);
      List.iter2
        (fun (meth, _) (want, got) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: batched payload identical" meth)
            want
            (Ejson.to_compact_string (expect_ok meth got.Protocol.rs_result)))
        queries
        (List.combine unbatched rs))

let test_shutdown_latency () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "fast.sock" in
  let handler = Handler.create (Session.create ()) in
  let server = Domain.spawn (fun () -> Server.serve_unix ~jobs:1 handler socket) in
  let c = Client.connect ~retry_for:10. socket in
  ignore (Client.call c ~meth:"ping" ~params:Ejson.Null);
  (* the reactor parks in select with no poll interval: a shutdown must
     take effect immediately, not after a polling tick *)
  let t0 = Unix.gettimeofday () in
  (match Client.call c ~meth:"shutdown" ~params:Ejson.Null with
  | Ok reply ->
    Alcotest.(check bool)
      "shutdown acknowledged" true
      (bool_field "shutdown" "stopping" reply)
  | Error (_, msg) -> Alcotest.failf "shutdown failed: %s" msg);
  Domain.join server;
  let elapsed = Unix.gettimeofday () -. t0 in
  Client.close c;
  Alcotest.(check bool)
    (Printf.sprintf "shutdown-to-exit under 50ms (took %.1fms)"
       (1e3 *. elapsed))
    true (elapsed < 0.05)

(* The 41-line macro bomb over the socket: "open" answers with a
   frontend error instead of holding a worker until memory runs out, and
   the daemon keeps serving. *)
let test_macro_bomb_open () =
  let dir = fresh_dir () in
  let file = temp_c dir "bomb.c" (Test_util.macro_bomb 39) in
  let socket = Filename.concat dir "bomb.sock" in
  let handler = Handler.create (Session.create ()) in
  let server = Domain.spawn (fun () -> Server.serve_unix ~jobs:1 handler socket) in
  let c = Client.connect ~retry_for:10. ~timeout:30. socket in
  (match
     Client.call c ~meth:"open" ~params:(Ejson.Assoc [ ("file", Ejson.String file) ])
   with
  | Error (code, msg) ->
    Alcotest.(check string)
      "open is a frontend error"
      (Protocol.string_of_error_code Protocol.Frontend_error)
      (Protocol.string_of_error_code code);
    Alcotest.(check bool)
      ("names the cause: " ^ msg) true
      (String.ends_with ~suffix:"macro expansion too large (over 4194304 bytes)" msg)
  | Ok v -> Alcotest.failf "open answered %s" (Ejson.to_compact_string v));
  let pong = expect_ok "ping after the bomb" (Client.call c ~meth:"ping" ~params:Ejson.Null) in
  Alcotest.(check bool) "daemon still answers" true (bool_field "ping" "pong" pong);
  ignore (Client.call c ~meth:"shutdown" ~params:Ejson.Null);
  Domain.join server;
  Client.close c

let test_pipelined_out_of_order_await () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let socket = Filename.concat dir "pipe.sock" in
  let handler = Handler.create (Session.create ()) in
  let server = Domain.spawn (fun () -> Server.serve_unix ~jobs:1 handler socket) in
  let c = Client.connect ~retry_for:10. socket in
  ignore
    (Client.call c ~meth:"open"
       ~params:(Ejson.Assoc [ ("file", Ejson.String file) ]));
  (* three requests on the wire at once, awaited newest-first: replies
     arrive in wire order, so earlier completions must be parked *)
  let t1 = Client.submit c ~meth:"ping" ~params:Ejson.Null in
  let t2 = Client.submit c ~meth:"stats" ~params:Ejson.Null in
  let t3 = Client.submit c ~meth:"purity" ~params:Ejson.Null in
  let r3 = expect_ok "purity ticket" (Client.await c t3) in
  Alcotest.(check bool)
    "purity reply reached its ticket" true
    (Ejson.member "functions" r3 <> None);
  let r1 = expect_ok "ping ticket" (Client.await c t1) in
  Alcotest.(check int)
    "ping reply reached its ticket" Protocol.protocol_version
    (int_field "ping" "protocol_version" r1);
  let r2 = expect_ok "stats ticket" (Client.await c t2) in
  Alcotest.(check bool)
    "stats reply reached its ticket" true
    (int_field "stats" "requests" r2 >= 1);
  (* a ticket can only be awaited once *)
  (match Client.await c t2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an already-awaited ticket must be refused");
  (* a batch submit yields one ticket per element, awaitable in order *)
  let tickets =
    Client.submit_batch c
      [ ("ping", Ejson.Null); ("conflicts", Ejson.Null) ]
  in
  Alcotest.(check int) "two tickets for two elements" 2 (List.length tickets);
  List.iter
    (fun t -> ignore (expect_ok "batched ticket" (Client.await c t) : Ejson.t))
    tickets;
  (match Client.call c ~meth:"shutdown" ~params:Ejson.Null with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.failf "shutdown failed: %s" msg);
  Domain.join server;
  Client.close c

let test_warm_restart_snapshot () =
  let dir = fresh_dir () in
  let cache_dir = Filename.concat dir "cache" in
  let file = temp_c dir "conflict.c" conflict_src in
  let params = Ejson.Assoc [ ("file", Ejson.String file) ] in
  let open_once () =
    (* a fresh cache instance over the same directory each time: only
       the on-disk snapshots survive the "restart" *)
    let cache = Engine_cache.create cache_dir in
    let h = Handler.create (Session.create ~cache ()) in
    expect_ok "open" (rpc h (Handler.new_conn ()) "open" params)
  in
  let cold = open_once () in
  Alcotest.(check string)
    "first server instance solves cold" "miss"
    (string_field "open" "status" cold);
  let warm = open_once () in
  Alcotest.(check string)
    "restarted server answers from the disk snapshot" "disk-hit"
    (string_field "open" "status" warm);
  Alcotest.(check string)
    "snapshot yields the identical solution"
    (string_field "open" "solution_digest" cold)
    (string_field "open" "solution_digest" warm)

(* ---- (k) one in-memory copy of each solution ------------------------------------ *)

(* Weak pointers to an entry's solution record and its analysis, and
   nothing else: once the manager drops the entry, both must be
   garbage.  Opening through a helper keeps the entry itself out of the
   caller's live locals. *)
type watched = { w_td : Engine.tiered Weak.t; w_a : Engine.analysis Weak.t }

let[@inline never] open_watched sessions path =
  let e = (Session.open_path sessions path).Session.or_entry in
  let w = { w_td = Weak.create 1; w_a = Weak.create 1 } in
  Weak.set w.w_td 0 (Some e.Session.ses_tiered);
  Weak.set w.w_a 0 (Session.analysis e);
  Alcotest.(check bool) "the open solved to an analysis" true (Weak.check w.w_a 0);
  (w, e.Session.ses_id)

let check_collected what w =
  Gc.full_major ();
  Alcotest.(check bool) (what ^ ": solution record collected") false
    (Weak.check w.w_td 0);
  Alcotest.(check bool) (what ^ ": analysis collected") false
    (Weak.check w.w_a 0)

let test_dropped_solutions_collected () =
  let dir = fresh_dir () in
  let f1 = temp_c dir "one.c" conflict_src in
  let f2 = temp_c dir "two.c" disjoint_src in
  let managers =
    [
      ("no cache", fun max_entries -> Session.create ~max_entries ());
      ( "disk cache",
        fun max_entries ->
          Session.create ~max_entries
            ~cache:(Engine_cache.create (Filename.concat (fresh_dir ()) "cache"))
            () );
    ]
  in
  List.iter
    (fun (label, create) ->
      let sessions = create 16 in
      let w, id = open_watched sessions f1 in
      Alcotest.(check bool) (label ^ ": closed") true (Session.close sessions id);
      check_collected (label ^ ", close") w;
      let w, _ = open_watched sessions f1 in
      ignore
        (Session.update ~source:(conflict_src ^ "\nint extra;\n") sessions f1
          : Session.entry * Incr_engine.outcome);
      check_collected (label ^ ", update") w;
      let sessions = create 1 in
      let w, _ = open_watched sessions f1 in
      ignore (Session.open_path sessions f2 : Session.open_result);
      Alcotest.(check int) (label ^ ": evicted") 1 (session_stat sessions "evicted");
      check_collected (label ^ ", eviction") w)
    managers

let test_reopen_after_close () =
  let dir = fresh_dir () in
  let file = temp_c dir "conflict.c" conflict_src in
  let params = Ejson.Assoc [ ("file", Ejson.String file) ] in
  (* open, close and re-open on one manager instance *)
  let reopen sessions =
    let h = Handler.create sessions in
    let conn = Handler.new_conn () in
    let first = expect_ok "open" (rpc h conn "open" params) in
    let id = string_field "open" "session" first in
    ignore
      (expect_ok "close"
         (rpc h conn "close" (Ejson.Assoc [ ("session", Ejson.String id) ]))
        : Ejson.t);
    (first, expect_ok "re-open" (rpc h conn "open" params))
  in
  let cache = Engine_cache.create (Filename.concat dir "cache") in
  let cold, warm = reopen (Session.create ~cache ()) in
  Alcotest.(check string)
    "first open solves cold" "miss"
    (string_field "open" "status" cold);
  Alcotest.(check string)
    "re-open after close reads the disk cache" "disk-hit"
    (string_field "open" "status" warm);
  Alcotest.(check string)
    "the disk hit is the identical solution"
    (string_field "open" "solution_digest" cold)
    (string_field "open" "solution_digest" warm);
  let sessions = Session.create () in
  let cold, again = reopen sessions in
  Alcotest.(check string)
    "without a cache, re-open after close solves cold" "miss"
    (string_field "open" "status" again);
  Alcotest.(check string)
    "the re-solve is the identical solution"
    (string_field "open" "solution_digest" cold)
    (string_field "open" "solution_digest" again);
  Alcotest.(check int) "two solves" 2 (session_stat sessions "solved")

let test_bytes_ignore_other_solves () =
  let dir = fresh_dir () in
  let suite_file name =
    temp_c dir (name ^ ".c") (Suite.source (Option.get (Suite.find name)))
  in
  let part = suite_file "part" and larger = suite_file "simulator" in
  let bytes sessions path =
    (Session.open_path sessions path).Session.or_entry.Session.ses_bytes
  in
  let alone = bytes (Session.create ()) part in
  let sessions =
    Session.create ~cache:(Engine_cache.create (Filename.concat dir "cache")) ()
  in
  let larger_bytes = bytes sessions larger in
  Alcotest.(check bool) "the other program is larger" true (larger_bytes > alone);
  let after = bytes sessions part in
  Alcotest.(check bool)
    (Printf.sprintf
       "part's bytes after another solve (%d) within 2x of a lone open (%d)"
       after alone)
    true
    (after <= 2 * alone && alone <= 2 * after)

let tests =
  [
    Alcotest.test_case "protocol: codec round-trips" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: validation and accessors" `Quick
      test_protocol_validation;
    Alcotest.test_case "handler: structured error paths" `Quick test_handler_errors;
    Alcotest.test_case "session: hit on unchanged re-open" `Quick
      test_session_hit_and_stats;
    Alcotest.test_case "session: invalidation on content change" `Quick
      test_invalidation_on_change;
    Alcotest.test_case "session: LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "session: close semantics" `Quick test_close;
    Alcotest.test_case "verdicts match direct invocation" `Quick
      test_verdicts_match_direct;
    Alcotest.test_case "may_alias by source line" `Quick test_may_alias_by_line;
    Alcotest.test_case "engine cache: corrupt entries purged" `Quick
      test_cache_purges_corrupt_entries;
    Alcotest.test_case "engine cache: prune to a byte budget" `Quick
      test_cache_prune;
    Alcotest.test_case "telemetry: latency summaries" `Quick test_latency_summary;
    Alcotest.test_case "socket: two concurrent clients, clean shutdown" `Quick
      test_socket_two_clients;
    Alcotest.test_case "governance: protocol versioning" `Quick
      test_protocol_versioning;
    Alcotest.test_case "governance: deadline degrades, re-open upgrades" `Quick
      test_deadline_degrades_and_upgrades;
    Alcotest.test_case "governance: floor violation is structured" `Quick
      test_deadline_floor_error_keeps_server_healthy;
    Alcotest.test_case "governance: cs query falls back under deadline" `Quick
      test_may_alias_cs_deadline_falls_back;
    Alcotest.test_case "governance: close cancels an in-flight solve" `Quick
      test_close_cancels_inflight;
    Alcotest.test_case "governance: client timeouts on dead daemons" `Quick
      test_client_timeout_on_dead_daemon;
    Alcotest.test_case "demand: mode=demand session answers at ci" `Quick
      test_demand_spellings_answer_at_ci;
    Alcotest.test_case "update: in-place incremental re-analysis" `Quick
      test_update_in_place;
    Alcotest.test_case "update: source buffer overrides the disk" `Quick
      test_update_source_param;
    Alcotest.test_case "update: structured error paths" `Quick
      test_update_errors;
    Alcotest.test_case "v6: batch envelope codec" `Quick test_batch_envelope_codec;
    Alcotest.test_case "v6: batch dispatch order and refusals" `Quick
      test_batch_dispatch;
    Alcotest.test_case "v6: query opts round-trip and v5 compat" `Quick
      test_query_opts_codec;
    Alcotest.test_case "reactor: tier=dyck queries run on the reactor, cs on the pool"
      `Quick test_heavy_request_tiers;
    Alcotest.test_case "frontend: a macro bomb open fails, ping still answers"
      `Quick test_macro_bomb_open;
    Alcotest.test_case "v6: batched payloads match unbatched" `Quick
      test_batched_matches_unbatched;
    Alcotest.test_case "v6: shutdown under 50ms on a live socket" `Quick
      test_shutdown_latency;
    Alcotest.test_case "v6: pipelined client awaits out of order" `Quick
      test_pipelined_out_of_order_await;
    Alcotest.test_case "v6: warm restart answers from disk snapshot" `Quick
      test_warm_restart_snapshot;
    Alcotest.test_case "session: dropped solutions are collected" `Quick
      test_dropped_solutions_collected;
    Alcotest.test_case "session: re-open after close re-solves" `Quick
      test_reopen_after_close;
    Alcotest.test_case "session: bytes ignore other programs" `Quick
      test_bytes_ignore_other_solves;
  ]
