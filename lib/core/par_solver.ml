(* Sharded parallel CI solve over the call-graph SCC condensation.

   One program's fixpoint is split across OCaml 5 domains at procedure
   granularity: procedures are grouped into strongly connected
   components of the (statically visible) call graph, each component is
   owned by exactly one domain, and components are scheduled bottom-up
   over the condensation so most interprocedural flow is already settled
   when a caller starts.  The schedule is a relaxation, not a single
   pass — points-to facts flow both down (actuals to formals) and up
   (returns to results), and indirect calls add edges mid-solve — so
   correctness never depends on the ordering: any fact that lands on a
   foreign node is forwarded to its owner as a message and re-activates
   that shard.

   Memory discipline (see also Ci_solver.Internal and DESIGN.md §16):

   - All shards share one [pts] array and the frozen graph.  A slot is
     mutated only by its owner, in the owner's Ptset universe; foreign
     slots may be read via iteration (a prefix snapshot of an immutable
     list).  A stale read is repaired by the owner's later consumer
     notification, exactly like a late worklist arrival sequentially.
   - The Apath table is flipped into shared (mutex + per-domain memo)
     mode for the duration, so concurrently interned paths get globally
     consistent pids.
   - At the end the main domain re-interns every slot into its own
     universe ({!Ptpair.Set.of_pairs}) and sorts pairs canonically, so
     the assembled solution is an ordinary read-write [Ci_solver.t] and
     byte-identical in digest to a sequential solve (the fixpoint is
     unique; Solution_digest is order-canonical).

   Termination is a global outstanding-work counter: every schedulable
   unit (component seed task, inbox message, local worklist item) is
   counted before it becomes visible and un-counted only after the work
   it generated has been counted, so zero is exact global quiescence. *)

module Internal = Ci_solver.Internal

type stats = {
  par_jobs : int;
  par_components : int;
  par_steals : int;
  par_messages : int;
}

(* what each domain brings home for the merge *)
type shard_result = {
  r_flow_in : int;
  r_flow_out : int;
  r_pushes : int;
  r_pops : int;
  r_calls : (Vdg.node_id * (string * int array option) list) list;
  r_callers : (string * Vdg.node_id list) list;
  r_ext : (Vdg.node_id * string list) list;
  r_ptset : Ptset.stats;
  r_messages : int;
  r_steals : int;
}

(* ---- mailboxes ------------------------------------------------------------- *)

module Msgq = struct
  type 'a t = { lock : Mutex.t; q : 'a Queue.t }

  let create () = { lock = Mutex.create (); q = Queue.create () }
  let push t x = Mutex.protect t.lock (fun () -> Queue.push x t.q)

  let pop t =
    Mutex.protect t.lock (fun () ->
        if Queue.is_empty t.q then None else Some (Queue.pop t.q))
end

(* ---- static call structure --------------------------------------------------- *)

(* Function values reaching a call's fn input without running the solver:
   chase gamma merges back to Nbase function constants.  This is only a
   scheduling heuristic — edges discovered dynamically (function
   pointers, higher-order extern summaries) simply cross shards as
   messages — so missing edges cost locality, never soundness. *)
let static_callees (g : Vdg.t) (call : Vdg.node_id) : string list =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec chase nid =
    if not (Hashtbl.mem seen nid) then begin
      Hashtbl.replace seen nid ();
      let n = Vdg.node g nid in
      match n.Vdg.nkind with
      | Vdg.Nbase { Apath.bkind = Apath.Bfun name; _ } ->
        if Hashtbl.mem g.Vdg.funs name then acc := name :: !acc
      | Vdg.Ngamma -> List.iter chase n.Vdg.ninputs
      | _ -> ()
    end
  in
  (match (Vdg.node g call).Vdg.ninputs with fn :: _ -> chase fn | [] -> ());
  !acc

(* ---- solve ------------------------------------------------------------------- *)

let solve ?(config = Ci_solver.default_config) ~jobs (g : Vdg.t) :
    Ci_solver.t * stats =
  if jobs <= 1 then
    ( Ci_solver.solve ~config g,
      { par_jobs = 1; par_components = 0; par_steals = 0; par_messages = 0 } )
  else begin
    let n_nodes = Vdg.n_nodes g in
    (* call-graph vertices: defined functions, in a deterministic order *)
    let fnames =
      List.sort String.compare (Hashtbl.fold (fun f _ acc -> f :: acc) g.Vdg.funs [])
    in
    let fnames = Array.of_list fnames in
    let nf = Array.length fnames in
    let findex = Hashtbl.create (2 * nf) in
    Array.iteri (fun i f -> Hashtbl.replace findex f i) fnames;
    let succ = Array.make (max nf 1) [] in
    let eseen = Hashtbl.create 256 in
    List.iter
      (fun call ->
        let caller = (Vdg.node g call).Vdg.nfun in
        match Hashtbl.find_opt findex caller with
        | None -> ()
        | Some i ->
          List.iter
            (fun callee ->
              let j = Hashtbl.find findex callee in
              if not (Hashtbl.mem eseen (i, j)) then begin
                Hashtbl.replace eseen (i, j) ();
                succ.(i) <- j :: succ.(i)
              end)
            (static_callees g call))
      g.Vdg.calls;
    let scc = Scc.condense ~n:nf ~succ in
    let k = Scc.n_components scc in
    (* component k is the pseudo-component of program-level nodes
       (entry_store and friends, nfun = "") *)
    let n_comps = k + 1 in
    let comp_of_fun f =
      match Hashtbl.find_opt findex f with Some i -> scc.Scc.scc_of.(i) | None -> k
    in
    let comp_of_node = Array.make n_nodes k in
    let comp_nodes = Array.make n_comps [] in
    Vdg.iter_nodes g (fun n ->
        let c = comp_of_fun n.Vdg.nfun in
        comp_of_node.(n.Vdg.nid) <- c;
        comp_nodes.(c) <- n.Vdg.nid :: comp_nodes.(c));
    Array.iteri (fun c nids -> comp_nodes.(c) <- List.rev nids) comp_nodes;
    (* shared coordination state *)
    let pts = Array.init n_nodes (fun _ -> Ptpair.Set.create ()) in
    let owner = Array.init n_comps (fun _ -> Atomic.make (-1)) in
    let outstanding = Atomic.make 0 in
    let deques = Array.init jobs (fun _ -> Workbag.Deque.create ()) in
    let inboxes = Array.init jobs (fun _ -> Msgq.create ()) in
    (* one seed task per component, distributed round-robin in bottom-up
       order: the pseudo-component first (it feeds main's store chain),
       then the condensation callees-before-callers *)
    let tasks = k :: Array.to_list scc.Scc.topo in
    List.iteri
      (fun i c ->
        Atomic.incr outstanding;
        Workbag.Deque.push deques.(i mod jobs) c)
      tasks;
    Apath.share g.Vdg.tbl;
    let worker me () =
      let before = Ptset.stats () in
      let t_cell = ref None in
      let t () = Option.get !t_cell in
      let messages = ref 0 in
      let steals = ref 0 in
      let handle ev =
        match ev with
        | Ci_solver.Rflow_out (nid, p) -> Internal.flow_out (t ()) nid p
        | Ci_solver.Rflow_in (nid, idx, p) -> Internal.enqueue (t ()) nid idx p
        | Ci_solver.Rnew_caller (fname, call) ->
          Internal.register_caller (t ()) fname call
      in
      let claim c = Atomic.compare_and_set owner.(c) (-1) me in
      let seed_comp c =
        Internal.seed_nodes (t ()) comp_nodes.(c);
        if c = k then Internal.seed_entry (t ())
      in
      let post o ev =
        Atomic.incr outstanding;
        incr messages;
        Msgq.push inboxes.(o) ev
      in
      let comp_of_event = function
        | Ci_solver.Rflow_out (nid, _) | Ci_solver.Rflow_in (nid, _, _) ->
          comp_of_node.(nid)
        | Ci_solver.Rnew_caller (fname, _) -> comp_of_fun fname
      in
      let rec route c ev =
        let o = Atomic.get owner.(c) in
        if o = me then handle ev
        else if o >= 0 then post o ev
        else if claim c then begin
          seed_comp c;
          handle ev
        end
        else route c ev
      in
      let emit ev = route (comp_of_event ev) ev in
      let owns nid = Atomic.get owner.(comp_of_node.(nid)) = me in
      t_cell := Some (Internal.mk ~config ~pts ~owns ~emit g);
      let t = t () in
      (* outstanding bookkeeping: worklist additions happen inside the
         solver, so they are accounted by differencing the lifetime push
         counter after each unit of work, before that unit is retired *)
      let flushed = ref 0 in
      let flush_then_retire () =
        let now = Internal.raw_pushes t in
        let d = now - !flushed in
        if d > 0 then ignore (Atomic.fetch_and_add outstanding d);
        flushed := now;
        ignore (Atomic.fetch_and_add outstanding (-1))
      in
      let run_task c =
        if claim c then seed_comp c;
        flush_then_retire ()
      in
      let try_steal () =
        let found = ref None in
        let j = ref 0 in
        while !found = None && !j < jobs do
          if !j <> me then begin
            match Workbag.Deque.steal deques.(!j) with
            | Some c ->
              incr steals;
              found := Some c
            | None -> ()
          end;
          incr j
        done;
        !found
      in
      let backoff = ref 0 in
      let quiet = ref false in
      while not !quiet do
        let progressed =
          match Msgq.pop inboxes.(me) with
          | Some ev ->
            handle ev;
            flush_then_retire ();
            true
          | None ->
            if Internal.step t then begin
              flush_then_retire ();
              true
            end
            else begin
              match Workbag.Deque.pop deques.(me) with
              | Some c ->
                run_task c;
                true
              | None -> (
                match try_steal () with
                | Some c ->
                  run_task c;
                  true
                | None -> false)
            end
        in
        if progressed then backoff := 0
        else if Atomic.get outstanding = 0 then quiet := true
        else begin
          incr backoff;
          if !backoff < 8 then Domain.cpu_relax ()
          else
            (* also yields the core on machines with fewer cores than
               shards, where pure spinning would serialize timeslices *)
            Unix.sleepf 0.0002
        end
      done;
      let delta = Ptset.delta ~before ~after:(Ptset.stats ()) in
      {
        r_flow_in = Ci_solver.flow_in_count t;
        r_flow_out = Ci_solver.flow_out_count t;
        r_pushes = Internal.raw_pushes t;
        r_pops = Internal.raw_pops t;
        r_calls = Internal.call_entries t;
        r_callers = Internal.caller_entries t;
        r_ext = Internal.ext_entries t;
        r_ptset = delta;
        r_messages = !messages;
        r_steals = !steals;
      }
    in
    let domains = Array.init jobs (fun d -> Domain.spawn (worker d)) in
    let results = Array.map Domain.join domains in
    Apath.unshare g.Vdg.tbl;
    assert (Atomic.get outstanding = 0);
    (* merge: re-intern every slot into this domain's universe, in
       canonical (ascending pair-key) order *)
    let before = Ptset.stats () in
    let pts_final =
      Array.map (fun s -> Ptpair.Set.of_pairs (Ptpair.Set.elements s)) pts
    in
    let merge_delta = Ptset.delta ~before ~after:(Ptset.stats ()) in
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
    let gather f =
      List.sort compare (List.concat_map f (Array.to_list results))
    in
    let stats_sum =
      Array.fold_left
        (fun acc r ->
          let d = r.r_ptset in
          {
            Ptset.st_sets = acc.Ptset.st_sets + d.Ptset.st_sets;
            st_live_bytes = acc.Ptset.st_live_bytes + d.Ptset.st_live_bytes;
            st_peak_bytes = acc.Ptset.st_peak_bytes + d.Ptset.st_peak_bytes;
            st_cache_hits = acc.Ptset.st_cache_hits + d.Ptset.st_cache_hits;
            st_cache_misses = acc.Ptset.st_cache_misses + d.Ptset.st_cache_misses;
            st_cache_rotations =
              acc.Ptset.st_cache_rotations + d.Ptset.st_cache_rotations;
          })
        merge_delta results
    in
    let messages = sum (fun r -> r.r_messages) in
    let steals = sum (fun r -> r.r_steals) in
    let ci =
      Internal.assemble ~config g ~pts:pts_final
        ~calls:(gather (fun r -> r.r_calls))
        ~callers:(gather (fun r -> r.r_callers))
        ~ext_calls:(gather (fun r -> r.r_ext))
        ~flow_in_count:(sum (fun r -> r.r_flow_in))
        ~flow_out_count:(sum (fun r -> r.r_flow_out))
        ~pushes:(sum (fun r -> r.r_pushes))
        ~pops:(sum (fun r -> r.r_pops))
        ~ptset_stats:stats_sum
    in
    ( ci,
      {
        par_jobs = jobs;
        par_components = n_comps;
        par_steals = steals;
        par_messages = messages;
      } )
  end
