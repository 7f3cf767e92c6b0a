(** A stand-in for the retired sharded CI solver.

    The sharded solve over the call-graph SCC condensation never cleared
    its speedup bar, and a worklist of set-granular slots ({!Ci_solver})
    has no per-pair messages to shard, so it is gone.  This stub keeps
    the two names the benchmark's [par.*] layer metrics link against:
    {!solve} runs the sequential {!Ci_solver.solve} and reports one job
    and no components, steals or messages.  Nothing in the product calls
    it. *)

type stats = {
  par_jobs : int;  (** always 1 *)
  par_components : int;  (** always 0 *)
  par_steals : int;  (** always 0 *)
  par_messages : int;  (** always 0 *)
}

val solve :
  ?config:Ci_solver.config -> jobs:int -> Vdg.t -> Ci_solver.t * stats
(** [solve ~jobs g] is [Ci_solver.solve g], whatever [jobs] is. *)
