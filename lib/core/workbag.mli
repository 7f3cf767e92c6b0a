(** A work bag whose removal order is configurable.

    The paper notes the algorithm "has the desirable property that its
    convergence time is independent of the scheduling strategy used for
    the worklist"; the test suite checks the stronger statement that the
    *solution* is schedule-independent.  Shared by the CI fixpoint
    ({!Ci_solver}) and the Dyck-reachability saturation
    ({!Dyck_solver}). *)

type schedule = Fifo | Lifo | Random_order of int  (** seed *)

type 'a t

val create : dummy:'a -> schedule -> 'a t
(** [dummy] fills the unused slots, so items are stored without an
    option box; it is never returned by {!pop}. *)

val is_empty : 'a t -> bool
val add : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** @raise Invalid_argument when empty. *)

val pushed : 'a t -> int
(** Lifetime add count. *)

val popped : 'a t -> int
(** Lifetime pop count. *)

(** A steal-capable double-ended queue for the parallel solver's SCC
    task schedule.  All operations are safe to call from any domain (a
    single mutex guards the ring; tasks are coarse enough that lock
    contention is irrelevant).  The owner [push]es tasks in bottom-up
    topological order and [pop]s from the front, so it consumes its
    share of the condensation callees-first; idle domains [steal] from
    the back, peeling the most caller-ward tasks, which depend on the
    most other components and so are the least likely to be runnable
    soon on the owner. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  val pop : 'a t -> 'a option
  (** Owner end (front / oldest). *)

  val steal : 'a t -> 'a option
  (** Thief end (back / newest). *)

  val length : 'a t -> int

  val stolen : 'a t -> int
  (** Lifetime [steal] count (successful steals only). *)
end
