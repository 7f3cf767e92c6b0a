(** Differential soundness oracle.

    Runs a program under the concrete interpreter ({!Interp}) and checks
    that no analysis tier refutes a concretely observed storage access:
    the node tiers (CI, CS) must predict a dominating location path at
    the observation's position and direction, and the baseline tiers
    (Andersen, Steensgaard) — bridged through base projection — must
    include the observed root base wherever they record the
    dereference.  Misses are reported as structured
    {!violation} diffs rather than exceptions, so the fuzz driver can
    aggregate over large batches; an interpreter trap is itself a
    failure (generated programs are guaranteed trap-free, and a trapped
    run observes nothing, silently voiding the evidence). *)

type violation = {
  vi_program : string;  (** program label, e.g. ["fuzz_s7_i0042"] *)
  vi_seed : int option;  (** batch seed for generated programs *)
  vi_tier : string;  (** the tier that missed, e.g. ["andersen"] *)
  vi_loc : Srcloc.t;  (** source position of the observed access *)
  vi_rw : [ `Read | `Write ];
  vi_observed : string;  (** the concretely observed access path *)
  vi_predicted : string list;
      (** what the tier predicted there: location paths for node tiers,
          abstract locations for baselines *)
}

type report = {
  rp_program : string;
  rp_seed : int option;
  rp_trap : string option;  (** trap message when the run trapped *)
  rp_steps : int;  (** interpreter steps consumed *)
  rp_observations : int;  (** storage accesses observed *)
  rp_checked : int;  (** observations that lifted to an access path *)
  rp_violations : violation list;
}

val tier_names : string list
(** The four tiers every observation is checked against, coarse to fine:
    ["steensgaard"; "andersen"; "ci"; "cs"]. *)

val ok : report -> bool
(** No trap and no violations. *)

val string_of_violation : violation -> string
val violation_json : violation -> Ejson.t
val report_json : report -> Ejson.t

val default_fuel : int
(** Interpreter step ceiling used when [?fuel] is omitted (2M, matching
    the integration battery). *)

val check : ?fuel:int -> ?seed:int -> name:string -> Sil.program -> report
(** Solve every tier over the program, run the interpreter, and check
    each observation against each tier. *)

val check_src : ?fuel:int -> ?seed:int -> name:string -> string -> report
(** As {!check}, from C source text (compiled as [name ^ ".c"]). *)

val fuzz_profile : seed:int -> index:int -> Profile.t
(** Deterministic generator profile for slot [index] of a seeded batch:
    the knob shape and size are drawn from a splitmix stream over
    [(seed, index)], and the profile name encodes the pair so
    {!Genc.generate}'s name-seeded stream yields a distinct program per
    slot.  Same [(seed, index)], same program — always. *)

val check_generated : ?fuel:int -> seed:int -> int -> report
(** [check_generated ~seed i] generates slot [i] of the batch and checks
    it.  The fuzz driver and CI smoke iterate this over [0 .. n-1]. *)
