(* Resource governance: Budget checkpoints, the Engine's precision-
   degradation ladder, and the Result-typed error taxonomy. *)

let quickstart_src =
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

let quickstart = Engine.load_string ~file:"quickstart.c" quickstart_src

let example_files () =
  let dir = "../examples/c" in
  let dir = if Sys.file_exists dir then dir else "examples/c" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* ---- Budget checkpoints ---------------------------------------------------------- *)

let test_reason_round_trip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Budget.string_of_reason r)
        true
        (Budget.reason_of_string (Budget.string_of_reason r) = Some r))
    [
      Budget.Deadline; Budget.Transfer_limit; Budget.Meet_limit;
      Budget.Cancelled;
    ];
  Alcotest.(check bool) "unknown" true (Budget.reason_of_string "bogus" = None)

let test_ceilings_trip () =
  let b = Budget.start { Budget.no_limits with Budget.max_transfers = Some 3 } in
  Budget.tick_transfer b;
  Budget.tick_transfer b;
  Budget.tick_transfer b;
  Alcotest.check_raises "4th transfer trips"
    (Budget.Exhausted Budget.Transfer_limit) (fun () -> Budget.tick_transfer b);
  Alcotest.(check bool)
    "poll agrees" true
    (Budget.exhausted b = Some Budget.Transfer_limit);
  Alcotest.(check int) "transfer counter" 4 (Budget.transfers b);
  let b = Budget.start { Budget.no_limits with Budget.max_meets = Some 1 } in
  Budget.tick_meet b;
  Alcotest.check_raises "2nd meet trips" (Budget.Exhausted Budget.Meet_limit)
    (fun () -> Budget.tick_meet b);
  Alcotest.(check int) "meet counter" 2 (Budget.meets b)

let test_deadline_trips () =
  let b = Budget.start (Budget.limits_with_deadline 0.001) in
  Unix.sleepf 0.01;
  Alcotest.check_raises "expired deadline" (Budget.Exhausted Budget.Deadline)
    (fun () -> Budget.check_now b);
  (* the very first tick performs a slow check, so an already-expired
     deadline trips before any real work is sunk *)
  let b = Budget.start (Budget.limits_with_deadline 0.001) in
  Unix.sleepf 0.01;
  Alcotest.check_raises "first tick notices" (Budget.Exhausted Budget.Deadline)
    (fun () -> Budget.tick_transfer b)

let test_cancellation () =
  let b = Budget.unlimited () in
  Alcotest.(check bool) "not yet" false (Budget.is_cancelled b);
  Budget.check_now b;
  Budget.cancel b;
  Alcotest.(check bool) "flagged" true (Budget.is_cancelled b);
  Alcotest.check_raises "checkpoint raises" (Budget.Exhausted Budget.Cancelled)
    (fun () -> Budget.check_now b)

let test_restart_shares_fate () =
  (* operation counters reset per tier... *)
  let b = Budget.start { Budget.no_limits with Budget.max_transfers = Some 1 } in
  Budget.tick_transfer b;
  let b2 = Budget.restart b in
  Alcotest.(check int) "counter reset" 0 (Budget.transfers b2);
  Budget.tick_transfer b2;
  Alcotest.check_raises "ceiling still applies"
    (Budget.Exhausted Budget.Transfer_limit) (fun () -> Budget.tick_transfer b2);
  (* ...but the absolute deadline and the cancel flag span the ladder *)
  let b = Budget.start (Budget.limits_with_deadline 0.001) in
  Unix.sleepf 0.01;
  let b2 = Budget.restart b in
  Alcotest.check_raises "deadline is absolute"
    (Budget.Exhausted Budget.Deadline) (fun () -> Budget.check_now b2);
  let b = Budget.unlimited () in
  let b2 = Budget.restart b in
  Budget.cancel b2;
  Alcotest.(check bool) "cancel propagates up" true (Budget.is_cancelled b)

(* ---- the Engine ladder ----------------------------------------------------------- *)

let starved () =
  Budget.start { Budget.no_limits with Budget.max_transfers = Some 0 }

(* a request under the starved budget *)
let governed ?(want = Engine.Ci) ?(min_tier = Engine.Steensgaard) budget =
  { Engine.default_request with want; min_tier; budget = Some budget }

let test_run_governed_error () =
  (* a ci floor leaves no ladder: exhaustion is an error *)
  match Engine.analyze (governed ~min_tier:Engine.Ci (starved ())) quickstart with
  | Error (Engine.Budget_exhausted { be_tier = Engine.Ci; be_reason }) ->
    Alcotest.(check string)
      "reason" "transfer-limit"
      (Budget.string_of_reason be_reason)
  | Ok _ -> Alcotest.fail "starved run succeeded"
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_message e)

let test_cs_degrades_to_identical_ci () =
  (* a budget-exhausted CS solve answers from the (complete) CI tier,
     with verdicts identical to a direct CI run — on every example *)
  List.iter
    (fun file ->
      let a = Test_util.analysis (Engine.load_file file) in
      (match Engine.cs_tiered ~budget:(starved ()) a with
      | Ok { Engine.co_tier = Engine.Ci; co_cs = None; co_degradation = Some d }
        ->
        Alcotest.(check bool)
          (file ^ ": degradation step") true
          (d.Engine.d_from = Engine.Cs && d.Engine.d_to = Engine.Ci)
      | Ok o ->
        Alcotest.fail
          (Printf.sprintf "%s: expected CI fallback, got tier %s" file
             (Engine.string_of_tier o.Engine.co_tier))
      | Error e -> Alcotest.fail (file ^ ": " ^ Engine.error_message e));
      (* the degraded path answers may_alias from a.ci; check that against
         a hand-rolled CI pipeline on the same source *)
      let prog = Norm.compile ~file (Engine.load_file file).Engine.in_source in
      let g = Vdg_build.build prog in
      let ci' = Ci_solver.solve g in
      let nodes = List.map (fun (n, _) -> n.Vdg.nid) (Vdg.indirect_memops g) in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: verdict %d/%d" file x y)
                (Query.may_alias ci' x y)
                (Query.may_alias a.Engine.ci x y))
            nodes)
        nodes)
    (example_files ())

let test_ladder_descends_to_baseline () =
  match Engine.analyze (governed (starved ())) quickstart with
  | Error e -> Alcotest.fail (Engine.error_message e)
  | Ok td ->
    Alcotest.(check bool)
      "landed below ci" true
      (Engine.tier_rank td.Engine.td_tier < Engine.tier_rank Engine.Ci);
    Alcotest.(check bool) "no full analysis" true (td.Engine.td_analysis = None);
    Alcotest.(check bool)
      "baseline present" true
      (td.Engine.td_baseline <> None);
    (match td.Engine.td_degradations with
    | { Engine.d_from = Engine.Ci; d_to = Engine.Andersen; _ } :: _ -> ()
    | _ -> Alcotest.fail "first descent should be ci -> andersen");
    (* telemetry carries the achieved tier *)
    Alcotest.(check (option string))
      "telemetry tier"
      (Some (Engine.string_of_tier td.Engine.td_tier))
      td.Engine.td_telemetry.Telemetry.t_tier;
    Alcotest.(check int)
      "telemetry degradations"
      (List.length td.Engine.td_degradations)
      (List.length td.Engine.td_telemetry.Telemetry.t_degradations);
    (* line-keyed queries work at baseline tiers: find the lines holding
       indirect memory operations and check a self-alias verdict *)
    let deref_lines =
      List.filter
        (fun l ->
          match Engine.line_locations td l with
          | Some (_ :: _) -> true
          | Some [] -> false
          | None -> Alcotest.fail "line_locations unavailable at baseline")
        (List.init 40 (fun i -> i + 1))
    in
    Alcotest.(check bool) "some lines dereference" true (deref_lines <> []);
    let l = List.hd deref_lines in
    Alcotest.(check (option bool))
      (Printf.sprintf "line %d self-aliases" l)
      (Some true)
      (Engine.line_may_alias td l l)

let test_floor_stops_ladder () =
  (match Engine.analyze (governed ~min_tier:Engine.Ci (starved ())) quickstart with
  | Error (Engine.Budget_exhausted { be_tier = Engine.Ci; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_message e)
  | Ok _ -> Alcotest.fail "floor should forbid degrading");
  match
    Engine.analyze (governed ~min_tier:Engine.Andersen (starved ())) quickstart
  with
  | Error (Engine.Budget_exhausted { be_tier = Engine.Andersen; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_message e)
  | Ok _ -> Alcotest.fail "andersen floor should forbid steensgaard"

let test_cancel_never_degrades () =
  let b = Budget.unlimited () in
  Budget.cancel b;
  (match Engine.analyze (governed b) quickstart with
  | Error Engine.Cancelled -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_message e)
  | Ok _ -> Alcotest.fail "cancelled run succeeded");
  (* same through the budget-governed CS force *)
  let a = Test_util.analysis quickstart in
  let b = Budget.unlimited () in
  Budget.cancel b;
  match Engine.cs_tiered ~budget:b a with
  | Error Engine.Cancelled -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_message e)
  | Ok _ -> Alcotest.fail "cancelled cs force succeeded"

let test_full_tier_unaffected () =
  match Engine.analyze { Engine.default_request with want = Engine.Cs } quickstart with
  | Error e -> Alcotest.fail (Engine.error_message e)
  | Ok td ->
    Alcotest.(check string)
      "achieved cs" "cs"
      (Engine.string_of_tier td.Engine.td_tier);
    Alcotest.(check int) "no descents" 0 (List.length td.Engine.td_degradations);
    Alcotest.(check bool) "full analysis" true (td.Engine.td_analysis <> None);
    Alcotest.(check bool)
      "line queries reserved for baselines" true
      (Engine.line_may_alias td 31 31 = None
      && Engine.line_locations td 31 = None)

let test_floor_above_want () =
  (* with no budget nothing degrades, so a floor above the wanted tier is
     the tier the answer comes back at *)
  List.iter
    (fun (want, min_tier) ->
      let label =
        Printf.sprintf "want %s, min_tier %s" (Engine.string_of_tier want)
          (Engine.string_of_tier min_tier)
      in
      match
        Engine.analyze { Engine.default_request with want; min_tier } quickstart
      with
      | Error e -> Alcotest.fail (label ^ ": " ^ Engine.error_message e)
      | Ok td ->
        Alcotest.(check string)
          (label ^ ": answered at the floor")
          (Engine.string_of_tier min_tier)
          (Engine.string_of_tier td.Engine.td_tier);
        Alcotest.(check bool)
          (label ^ ": full analysis") true (td.Engine.td_analysis <> None);
        Alcotest.(check int)
          (label ^ ": no descents") 0
          (List.length td.Engine.td_degradations))
    [ (Engine.Ci, Engine.Cs); (Engine.Dyck, Engine.Ci); (Engine.Andersen, Engine.Cs) ]

let test_error_json_shapes () =
  let kinds =
    List.map
      (fun e ->
        match Ejson.member "error" (Engine.error_json e) with
        | Some (Ejson.String k) -> k
        | _ -> "?")
      [
        Engine.Frontend_error
          { fe_loc = Srcloc.make ~file:"t.c" ~line:1 ~col:1; fe_message = "boom" };
        Engine.Budget_exhausted
          { be_tier = Engine.Cs; be_reason = Budget.Deadline };
        Engine.Cancelled;
      ]
  in
  Alcotest.(check (list string))
    "kinds"
    [ "frontend-error"; "budget-exhausted"; "cancelled" ]
    kinds

let tests =
  [
    Alcotest.test_case "budget: reason round-trip" `Quick test_reason_round_trip;
    Alcotest.test_case "budget: operation ceilings" `Quick test_ceilings_trip;
    Alcotest.test_case "budget: deadline" `Quick test_deadline_trips;
    Alcotest.test_case "budget: cancellation" `Quick test_cancellation;
    Alcotest.test_case "budget: restart semantics" `Quick
      test_restart_shares_fate;
    Alcotest.test_case "run: governed error without ladder" `Quick
      test_run_governed_error;
    Alcotest.test_case "ladder: cs degrades to identical ci" `Quick
      test_cs_degrades_to_identical_ci;
    Alcotest.test_case "ladder: descends to baseline" `Quick
      test_ladder_descends_to_baseline;
    Alcotest.test_case "ladder: floor stops descent" `Quick
      test_floor_stops_ladder;
    Alcotest.test_case "ladder: cancellation never degrades" `Quick
      test_cancel_never_degrades;
    Alcotest.test_case "ladder: full tiers unaffected" `Quick
      test_full_tier_unaffected;
    Alcotest.test_case "ladder: a floor above want answers at the floor" `Quick
      test_floor_above_want;
    Alcotest.test_case "errors: json taxonomy" `Quick test_error_json_shapes;
  ]
