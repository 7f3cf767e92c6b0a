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
