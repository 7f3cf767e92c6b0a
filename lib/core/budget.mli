(** Resource budgets for cooperative solver cancellation.

    A budget bounds one solve along three axes — wall-clock deadline,
    transfer-function applications and meet (flow-out) applications —
    and additionally carries a cancellation flag that another domain may
    set at any time.  Solvers call {!tick_transfer} / {!tick_meet} from
    their hot loops; when a limit trips, the tick raises {!Exhausted} and
    the caller (normally the Engine's degradation ladder) decides what
    coarser tier to fall back to.

    Ticks are cheap: operation ceilings are checked on every tick, while
    the wall clock and the cancellation flag are sampled once every
    [check_interval] ticks. *)

type reason =
  | Deadline      (** wall-clock deadline passed *)
  | Transfer_limit  (** transfer-function ceiling reached *)
  | Meet_limit    (** meet/flow-out ceiling reached *)
  | Cancelled     (** {!cancel} was called (e.g. client went away) *)

exception Exhausted of reason

val string_of_reason : reason -> string
val reason_of_string : string -> reason option

(** Declarative limits; [None] along an axis means unlimited. *)
type limits = {
  deadline_s : float option;  (** seconds from {!start} *)
  max_transfers : int option;
  max_meets : int option;
}

val no_limits : limits
val limits_with_deadline : float -> limits

type t

(** [start limits] stamps the wall clock and returns a live budget. *)
val start : limits -> t

(** A budget that never trips (but can still be {!cancel}led). *)
val unlimited : unit -> t

(** [restart t] returns a fresh budget for the next ladder tier: operation
    counters reset to zero, but the absolute deadline and the cancellation
    flag are shared with [t] — cancelling either cancels both, and a
    wall-clock deadline spans the whole ladder descent. *)
val restart : t -> t

(** Request cancellation from any domain; the owning solver notices at its
    next checkpoint and raises [Exhausted Cancelled]. *)
val cancel : t -> unit

val is_cancelled : t -> bool

(** Checkpoints, called from solver hot loops.  Raise {!Exhausted} when a
    limit has tripped. *)

val tick_transfer : t -> unit
val tick_meet : t -> unit

val tick_transfers : t -> int -> unit
val tick_meets : t -> int -> unit
(** [n] units at once, for a solver that applies a transfer or a meet
    to a whole set: the ceilings trip at the same count, and the clock
    is still sampled once every [check_interval] units. *)

(** Force a full check (ceilings, wall clock, cancellation) right now. *)
val check_now : t -> unit

(** Like {!check_now} but polls instead of raising. *)
val exhausted : t -> reason option

(** Consumption counters, for telemetry. *)

val transfers : t -> int
val meets : t -> int

(** [remaining_s t] is the time left before the deadline, if one is set. *)
val remaining_s : t -> float option

(** Consumption summary as JSON-ready fields:
    [transfers], [meets], [deadline_s], [elapsed_s]. *)
val consumption : t -> (string * [ `Int of int | `Float of float ]) list
