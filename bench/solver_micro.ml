(* Micro + macro benchmark for the hash-consed points-to set layer.

     dune exec bench/solver_micro.exe                      # all benchmarks, JSON to stdout
     dune exec bench/solver_micro.exe -- allroots part     # a subset
     dune exec bench/solver_micro.exe -- --out BENCH_10.json
     dune exec bench/solver_micro.exe -- allroots part --check BENCH_10.json

   The "micro" section times set union and subset on sets shaped like the
   solver's (sizes drawn from the measured benchmark distribution, max
   ~33 elements) under two representations — the seed's naive sorted int
   lists, and the interned Ptset arrays with memoized operations — and
   under two op distributions, repetition-heavy (the solver's pattern,
   where the memo wins) and uniform-random (the memo's worst case, where
   the naive lists win).  The "benchmarks" section times full CI and CS
   solves and records the deterministic outcome facts — executed meets
   (CI and CS), the CS worklist's stale skips (fixed by its FIFO order),
   pair counts, and the canonical solution digest.

   --check FILE re-reads a previously written report and fails (exit 1)
   if any deterministic field drifted for a benchmark present in both:
   wall-clock and cache-hit figures vary by machine and by which solves
   preceded the measurement, but digests and meet counts must not move.
   The CI perf-smoke step runs exactly that on two fixtures. *)

let default_benchmarks =
  [ "allroots"; "part"; "anagram"; "compress"; "lex315"; "compiler";
    "yacr2"; "simulator"; "assembler"; "bc" ]

(* ---- naive reference representation (the seed's) --------------------------------- *)

let rec naive_union a b =
  match a, b with
  | [], r | r, [] -> r
  | x :: xs, y :: ys ->
    if x < y then x :: naive_union xs b
    else if x > y then y :: naive_union a ys
    else x :: naive_union xs ys

let rec naive_subset a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
    if x < y then false
    else if x > y then naive_subset a ys
    else naive_subset xs ys

(* ---- micro workload --------------------------------------------------------------- *)

(* Two op-pair distributions over the same universe of sets:

   - "repeated": op pairs drawn from a small pool and replayed many times
     over, which is what the solver does — the same meets recur as facts
     are re-derived along different paths, so the memo caches absorb them
     (the full solves below measure ~86% hit rates and zero cache
     rotations);
   - "uniform": every op an independent uniform random pair, far more
     distinct pairs than the memo holds.  This is the memo's worst case
     and the naive lists win it — kept here so the trade-off stays
     visible instead of cherry-picked away. *)
let micro_workload_json ~sets:(raw, interned) ~pairs n_ops =
  let n_pairs = Array.length pairs in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* a sink defeats any chance of the work being optimized away *)
  let sink = ref 0 in
  let naive_union_s =
    time (fun () ->
        for k = 0 to n_ops - 1 do
          let i, j = pairs.(k mod n_pairs) in
          sink := !sink + List.length (naive_union raw.(i) raw.(j))
        done)
  in
  let ptset_union_s =
    time (fun () ->
        for k = 0 to n_ops - 1 do
          let i, j = pairs.(k mod n_pairs) in
          sink := !sink + Ptset.id (Ptset.union interned.(i) interned.(j))
        done)
  in
  let naive_subset_s =
    time (fun () ->
        for k = 0 to n_ops - 1 do
          let i, j = pairs.(k mod n_pairs) in
          if naive_subset raw.(i) raw.(j) then incr sink
        done)
  in
  let ptset_subset_s =
    time (fun () ->
        for k = 0 to n_ops - 1 do
          let i, j = pairs.(k mod n_pairs) in
          if Ptset.subset interned.(i) interned.(j) then incr sink
        done)
  in
  let ns_per_op s = s *. 1e9 /. float_of_int n_ops in
  ignore !sink;
  Ejson.Assoc
    [
      ("distinct_pairs", Ejson.Int n_pairs);
      ("naive_union_ns_per_op", Ejson.Float (ns_per_op naive_union_s));
      ("ptset_union_ns_per_op", Ejson.Float (ns_per_op ptset_union_s));
      ("union_speedup", Ejson.Float (naive_union_s /. ptset_union_s));
      ("naive_subset_ns_per_op", Ejson.Float (ns_per_op naive_subset_s));
      ("ptset_subset_ns_per_op", Ejson.Float (ns_per_op ptset_subset_s));
      ("subset_speedup", Ejson.Float (naive_subset_s /. ptset_subset_s));
    ]

let micro_json () =
  let st = Random.State.make [| 0x5f3759df |] in
  let n_sets = 512 and n_ops = 500_000 in
  let raw =
    Array.init n_sets (fun _ ->
        let size = 1 + Random.State.int st 33 in
        List.sort_uniq compare
          (List.init size (fun _ -> Random.State.int st 4000)))
  in
  let interned = Array.map Ptset.of_list raw in
  let rand_pair () = (Random.State.int st n_sets, Random.State.int st n_sets) in
  let repeated_pool = Array.init 2048 (fun _ -> rand_pair ()) in
  let uniform = Array.init n_ops (fun _ -> rand_pair ()) in
  Ejson.Assoc
    [
      ("sets", Ejson.Int n_sets);
      ("ops", Ejson.Int n_ops);
      ( "repeated",
        micro_workload_json ~sets:(raw, interned) ~pairs:repeated_pool n_ops );
      ("uniform", micro_workload_json ~sets:(raw, interned) ~pairs:uniform n_ops);
    ]

(* ---- full solves ------------------------------------------------------------------- *)

(* An unbudgeted exhaustive run always carries the analysis. *)
let analysis_of input =
  Option.get
    (Result.get_ok (Engine.analyze Engine.default_request input)).Engine.td_analysis

let benchmark_json name =
  match Suite.find name with
  | None -> failwith ("unknown benchmark: " ^ name)
  | Some entry ->
    let source = Suite.source entry in
    let input = Engine.load_string ~file:(name ^ ".c") source in
    let prog = Engine.compile input in
    let g = Engine.build_graph prog in
    let t0 = Unix.gettimeofday () in
    let ci = Engine.solve_ci g in
    let t1 = Unix.gettimeofday () in
    let cs = Engine.solve_cs g ~ci in
    let t2 = Unix.gettimeofday () in
    let cs_stats = Cs_solver.ptset_stats cs in
    let base_a = analysis_of input in
    let digest = Solution_digest.digest base_a in
    (* the incremental engine's deterministic footprint: append one probe
       procedure (a single-procedure edit) and re-solve against the cold
       solution — which procedures re-solve versus splice depends only on
       the digest diff and the dependence graph, so the partition joins
       the drift gate; the spliced solution must also keep the digest *)
    let probe_source =
      source ^ "\nint __bench_probe(int *p) { return p == 0; }\n"
    in
    let probe_input = Engine.load_string ~file:(name ^ ".c") probe_source in
    let td_inc =
      Result.get_ok
        (Engine.analyze
           { Engine.default_request with prev = Some (Engine.incr_snapshot base_a) }
           probe_input)
    in
    let incr_stats = (Option.get td_inc.Engine.td_incr).Incr_engine.o_stats in
    let incr_digest_ok =
      String.equal
        (Solution_digest.digest (Option.get td_inc.Engine.td_analysis))
        (Solution_digest.digest (analysis_of probe_input))
    in
    Ejson.Assoc
      [
        ("name", Ejson.String name);
        ("nodes", Ejson.Int (Vdg.n_nodes g));
        ("ci_seconds", Ejson.Float (t1 -. t0));
        ("ci_meets", Ejson.Int (Ci_solver.flow_out_count ci));
        ("cs_seconds", Ejson.Float (t2 -. t1));
        ("cs_meets", Ejson.Int (Cs_solver.flow_out_count cs));
        ("cs_stale_skips", Ejson.Int (Cs_solver.worklist_stale_skips cs));
        ("cs_pairs", Ejson.Int (Stats.cs_pair_counts cs g).Stats.pc_total);
        ("meet_cache_hits", Ejson.Int cs_stats.Ptset.st_cache_hits);
        ("meet_cache_misses", Ejson.Int cs_stats.Ptset.st_cache_misses);
        ("interned_sets", Ejson.Int cs_stats.Ptset.st_sets);
        ("peak_table_bytes", Ejson.Int cs_stats.Ptset.st_peak_bytes);
        ("digest", Ejson.String digest);
        ("incr_probe_resolved", Ejson.Int incr_stats.Incr_engine.st_resolved);
        ("incr_probe_reused", Ejson.Int incr_stats.Incr_engine.st_reused);
        ("incr_probe_digest_ok", Ejson.Int (if incr_digest_ok then 1 else 0));
      ]

(* ---- baseline comparison ------------------------------------------------------------ *)

(* machine-independent fields: anything else (timings, cache hits,
   interning deltas) legitimately varies between hosts and run shapes *)
let deterministic_fields =
  [
    "nodes"; "ci_meets"; "cs_meets"; "cs_stale_skips";
    "cs_pairs"; "digest"; "incr_probe_resolved"; "incr_probe_reused";
    "incr_probe_digest_ok";
  ]

let field_string name j =
  match Ejson.member name j with
  | Some (Ejson.Int i) -> string_of_int i
  | Some (Ejson.String s) -> s
  | _ -> "<missing>"

let check_against ~baseline results =
  let base_list =
    match Ejson.member "benchmarks" baseline with
    | Some l -> Option.value ~default:[] (Ejson.to_list l)
    | None -> []
  in
  let base_of name =
    List.find_opt
      (fun b -> Ejson.member "name" b = Some (Ejson.String name))
      base_list
  in
  let drift = ref 0 in
  List.iter
    (fun r ->
      let name = field_string "name" r in
      match base_of name with
      | None ->
        Printf.eprintf "solver_micro: %s missing from baseline, skipping\n" name
      | Some b ->
        List.iter
          (fun f ->
            let got = field_string f r and want = field_string f b in
            if got <> want then begin
              incr drift;
              Printf.eprintf "solver_micro: DRIFT %s.%s: baseline %s, got %s\n"
                name f want got
            end)
          deterministic_fields)
    results;
  if !drift > 0 then begin
    Printf.eprintf "solver_micro: %d deterministic field(s) drifted\n" !drift;
    exit 1
  end;
  Printf.eprintf "solver_micro: no drift against baseline\n"

(* ---- driver ------------------------------------------------------------------------- *)

let () =
  let names = ref [] and out = ref None and check = ref None in
  let rec parse = function
    | [] -> ()
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | "--check" :: f :: rest ->
      check := Some f;
      parse rest
    | name :: rest ->
      names := name :: !names;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names = if !names = [] then default_benchmarks else List.rev !names in
  let results = List.map benchmark_json names in
  let report =
    Ejson.Assoc [ ("micro", micro_json ()); ("benchmarks", Ejson.List results) ]
  in
  (match !out with
  | Some f ->
    let oc = open_out f in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Ejson.to_string report ^ "\n"))
  | None -> print_endline (Ejson.to_string report));
  match !check with
  | None -> ()
  | Some f ->
    let ic = open_in f in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let baseline = Ejson.of_string content in
    check_against ~baseline results
