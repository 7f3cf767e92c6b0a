(** Spans around calls into the analyzer's layers, kept in memory and
    written at exit as Chrome trace-event JSON (Perfetto opens it).

    A span has a name, a start, an end, the identifier of the program or
    request it belongs to, and the span that was open when it started.
    Only the traced replay records spans; the end-to-end measurement
    never calls this module. *)

type span = {
  name : string;  (** ["layer.call"], e.g. ["cfront.parse"] *)
  id : int;  (** program or request identifier shared by its spans *)
  parent : int;  (** index of the enclosing span; -1 at top level *)
  pid : int;  (** 1 for the benchmark, 2.. for stage children *)
  start : float;  (** absolute wall-clock seconds *)
  stop : float;
  alloc : float;  (** bytes allocated in between ([Gc.allocated_bytes]) *)
}

val dur : span -> float
(** Seconds. *)

val request : int -> (unit -> 'a) -> 'a
(** Spans started inside the thunk carry this identifier. *)

val timed : string -> (unit -> 'a) -> 'a * span
(** Run the thunk inside a span and return the recorded span. *)

val add : span -> unit
(** Record a span measured elsewhere (a stage child's report) under the
    currently open span and request; its [parent] and [id] are replaced. *)

val spans : unit -> span list
(** Everything recorded so far, in start order. *)

val write : string -> unit
(** Write every span as a Chrome trace-event JSON file. *)
