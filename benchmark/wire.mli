(** A minimal client for the query server's wire format: one JSON request
    per line out, one JSON response per line back, over a Unix-domain
    socket.  The benchmark speaks the protocol itself rather than through
    the server library's client, so the end-to-end numbers depend only on
    the protocol. *)

type t

exception Closed
(** The server closed the connection. *)

val connect : string -> t
(** Connect to the socket at the given path, retrying for up to 30 s
    while the server starts. *)

val close : t -> unit

val send : t -> string -> unit
(** Write one request line (the newline is added). *)

val recv : t -> string
(** Read one response line (without its newline).  Fails after 300 s
    without a reply.
    @raise Closed on end of stream. *)

val request_line : id:int -> string -> Ejson.t -> string
(** [request_line ~id meth params]: one serialized request. *)

val reply : id:int -> string -> (Ejson.t, string) result
(** Parse a response line: [Ok result], or [Error message] for an error
    response, a malformed line or a reply to another id. *)

val call : t -> id:int -> string -> Ejson.t -> (Ejson.t, string) result
(** Send one request and parse its reply. *)
