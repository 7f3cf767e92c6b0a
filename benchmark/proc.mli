(** Child processes of the benchmark, timed and reaped from outside.

    Every child is reaped with [wait4(2)], so its peak resident set size
    comes from the kernel rather than from the child's own accounting.
    Children still alive when the benchmark exits are killed and reaped. *)

type outcome = {
  wall_s : float;  (** spawn to reaped exit *)
  code : int;  (** exit status; [128 + signal] when killed by a signal *)
  rss_mb : float;  (** [ru_maxrss], in MiB *)
}

val run : ?stdout:string -> string -> string list -> outcome
(** [run ?stdout prog args] spawns [prog args], waits for it and times it.
    Its standard output goes to the file [stdout] (truncated) or to
    /dev/null; standard error is inherited. *)

val start : ?stdout:string -> ?stderr:string -> string -> string list -> int
(** Spawn without waiting; the pid is registered for cleanup.  [stderr]
    names a file for the child's standard error (default: inherited). *)

val reap : int -> outcome
(** Wait for a child started with {!start}; [wall_s] counts from its
    start. *)

val kill : int -> outcome
(** SIGKILL a child started with {!start}, then reap it. *)
