(* Differential soundness oracle: run a program under the concrete
   interpreter and assert that no analysis tier refutes a concretely
   observed storage access.

   Every tier of the ladder is checked against every observation:

   - node tiers (CI, CS) must predict, at some memory operation at the
     observation's source position and direction, a location path that
     dominates the observed access path (the
     [assert_analysis_covers_interp] rule from the integration battery);
   - baseline tiers (Andersen, Steensgaard) are bridged through base
     projection: when the baseline records a dereference at the
     position, the observed path's root base must be in its points-to
     set (positions with no record are direct accesses the baselines
     do not track, and are skipped).

   A miss is reported as a structured {!violation} — program, seed,
   position, tier, observed vs predicted — rather than an assertion
   failure, so the fuzz driver can aggregate over large batches.  An
   interpreter trap is itself a failure: the workload generator
   guarantees trap-free programs, so a trap means either a generator or
   an interpreter bug, and it silently voids the soundness evidence
   (a trapped run observes nothing). *)

type violation = {
  vi_program : string;
  vi_seed : int option;
  vi_tier : string;
  vi_loc : Srcloc.t;
  vi_rw : [ `Read | `Write ];
  vi_observed : string;
  vi_predicted : string list;
}

type report = {
  rp_program : string;
  rp_seed : int option;
  rp_trap : string option;
  rp_steps : int;
  rp_observations : int;
  rp_checked : int;
  rp_violations : violation list;
}

let tier_names = [ "steensgaard"; "andersen"; "ci"; "cs" ]
let ok r = r.rp_trap = None && r.rp_violations = []

let string_of_violation v =
  Printf.sprintf "%s: %s misses %s %s at %s (predicted: [%s])" v.vi_program
    v.vi_tier
    (Checker.string_of_rw v.vi_rw)
    v.vi_observed (Srcloc.to_string v.vi_loc)
    (String.concat "; " v.vi_predicted)

let violation_json v =
  Ejson.Assoc
    [
      ("program", Ejson.String v.vi_program);
      ("seed", match v.vi_seed with Some s -> Ejson.Int s | None -> Ejson.Null);
      ("tier", Ejson.String v.vi_tier);
      ("loc", Ejson.String (Srcloc.to_string v.vi_loc));
      ("rw", Ejson.String (Checker.string_of_rw v.vi_rw));
      ("observed", Ejson.String v.vi_observed);
      ( "predicted",
        Ejson.List (List.map (fun s -> Ejson.String s) v.vi_predicted) );
    ]

let report_json r =
  Ejson.Assoc
    [
      ("program", Ejson.String r.rp_program);
      ("seed", match r.rp_seed with Some s -> Ejson.Int s | None -> Ejson.Null);
      ( "trap",
        match r.rp_trap with Some m -> Ejson.String m | None -> Ejson.Null );
      ("steps", Ejson.Int r.rp_steps);
      ("observations", Ejson.Int r.rp_observations);
      ("checked", Ejson.Int r.rp_checked);
      ("violations", Ejson.List (List.map violation_json r.rp_violations));
    ]

(* Bounded loops in generated and example programs finish well under
   this; the integration battery uses the same ceiling. *)
let default_fuel = 2_000_000

let check ?(fuel = default_fuel) ?seed ~name prog =
  let g = Vdg_build.build prog in
  let ci = Ci_solver.solve g in
  let cs = Cs_solver.solve g ~ci in
  let andersen = Andersen.analyze prog in
  let steensgaard = Steensgaard.analyze prog in
  let res = Interp.run ~fuel prog in
  let memops_by_key = Hashtbl.create 64 in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      match Vdg.loc_of g n.Vdg.nid with
      | Some loc ->
        let key = (loc, rw) in
        let prior =
          Option.value ~default:[] (Hashtbl.find_opt memops_by_key key)
        in
        Hashtbl.replace memops_by_key key (n.Vdg.nid :: prior)
      | None -> ())
    (Vdg.memops g);
  let violations = ref [] in
  let checked = ref 0 in
  let violate tier ob opath predicted =
    violations :=
      {
        vi_program = name;
        vi_seed = seed;
        vi_tier = tier;
        vi_loc = ob.Interp.ob_loc;
        vi_rw = ob.Interp.ob_rw;
        vi_observed = Apath.to_string opath;
        vi_predicted = predicted;
      }
      :: !violations
  in
  List.iter
    (fun ob ->
      match Interp.observed_apath g.Vdg.tbl ob with
      | None -> ()
      | Some opath ->
        incr checked;
        let nodes =
          Option.value ~default:[]
            (Hashtbl.find_opt memops_by_key (ob.Interp.ob_loc, ob.Interp.ob_rw))
        in
        let check_nodes tier locations_of =
          let covered =
            List.exists
              (fun nid ->
                List.exists (fun al -> Apath.dom al opath) (locations_of nid))
              nodes
          in
          if not covered then
            violate tier ob opath
              (List.concat_map
                 (fun nid -> List.map Apath.to_string (locations_of nid))
                 nodes)
        in
        check_nodes "ci" (Ci_solver.referenced_locations ci);
        check_nodes "cs" (Cs_solver.referenced_locations cs);
        (match opath.Apath.proot with
        | None -> ()
        | Some base ->
          let b = Absloc.of_base base in
          let check_baseline tier locs =
            if locs <> [] && not (List.exists (Absloc.equal b) locs) then
              violate tier ob opath (List.map Absloc.to_string locs)
          in
          check_baseline "andersen"
            (Andersen.memop_locations andersen ob.Interp.ob_loc ob.Interp.ob_rw);
          check_baseline "steensgaard"
            (Steensgaard.memop_locations steensgaard ob.Interp.ob_loc
               ob.Interp.ob_rw)))
    res.Interp.observations;
  {
    rp_program = name;
    rp_seed = seed;
    rp_trap =
      (match res.Interp.outcome with Interp.Trap m -> Some m | _ -> None);
    rp_steps = res.Interp.steps;
    rp_observations = List.length res.Interp.observations;
    rp_checked = !checked;
    rp_violations = List.rev !violations;
  }

let check_src ?fuel ?seed ~name src =
  check ?fuel ?seed ~name (Norm.compile ~file:(name ^ ".c") src)

(* ---- seeded fuzz batch ---------------------------------------------------- *)

(* Knob shapes follow the integration battery's randomized profiles; the
   program name carries the (seed, index) pair so Genc's name-seeded
   stream yields a distinct deterministic program per slot. *)
let fuzz_profile ~seed ~index =
  let rng =
    Srng.create
      (Int64.logxor
         (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
         (Int64.of_int index))
  in
  let name = Printf.sprintf "fuzz_s%d_i%04d" seed index in
  let target_lines = 160 + Srng.int rng 280 in
  let p = Profile.default ~name ~target_lines in
  match Srng.int rng 4 with
  | 0 -> { p with Profile.string_heavy = true }
  | 1 -> { p with Profile.use_funptr = true; n_stashers = 2 }
  | 2 ->
    { p with Profile.multi_target = false; list_exchange = true; n_list_types = 2 }
  | _ -> p

let check_generated ?fuel ~seed index =
  let profile = fuzz_profile ~seed ~index in
  check_src ?fuel ~seed ~name:profile.Profile.name (Genc.generate profile)
