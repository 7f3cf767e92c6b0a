(** Method dispatch for the alias-query server.

    Methods: [ping], [open], [close], [may_alias], [points_to], [modref],
    [purity], [conflicts], [lint], [stats], [shutdown].

    Every query method resolves a session three ways, in order: an
    explicit ["session"] id, a ["file"] path (implicitly opened — an
    unchanged file lands on the live session without re-solving), or the
    connection's default session (the last one opened on this
    connection).  Query evaluation holds the session's lock, so requests
    on different sessions run in parallel across worker domains while
    same-session requests serialize.

    Governance (protocol v2): [open], [may_alias] and [lint] accept
    ["deadline_ms"] / ["min_tier"] parameters; a deadline-bounded solve
    that exhausts its budget degrades down the precision ladder instead
    of failing, and the response carries the tier that actually answered
    (plus the degradation trail).  [close] accepts a ["file"] parameter
    that also cancels any in-flight solve for that path; [shutdown]
    cancels every in-flight solve.  Requests may carry a ["protocol"]
    version — versions newer than {!Protocol.protocol_version} are
    rejected with a structured unsupported-version error.

    Batching (protocol v6): one line may carry a JSON array of request
    objects; the sub-requests are evaluated in order on the connection
    and answered by one line carrying the array of responses.  The query
    methods accept the {!Protocol.query_opts} surface — a nested
    ["opts"] object or the v5 flat parameters. *)

type conn
(** Per-connection state (the default session). *)

val new_conn : unit -> conn

type t

val create : Session.t -> t
(** The handler is shared by every connection of a server. *)

val set_pool_width : t -> int -> unit
(** Record how many worker domains the transport actually spawned
    (clamped to at least 1); surfaced as ["worker_domains"] in the
    [stats] reply.  The stdio transport leaves the default of 1. *)

val sessions : t -> Session.t

val method_names : string list

type outcome =
  | Reply of string  (** one response line, without the newline *)
  | Reply_shutdown of string
      (** the response to write before the transport shuts down *)

val handle : ?blocking:bool -> t -> conn -> Protocol.request -> outcome
(** With [~blocking:false] (the reactor's inline path), a request raises
    {!Session.Busy} instead of waiting on a session lock.  Nothing is
    recorded for the punted attempt; the caller retries on a worker with
    the default blocking mode. *)

val handle_item :
  ?blocking:bool ->
  t ->
  conn ->
  (Protocol.request, Protocol.error_code * string) result ->
  Ejson.t
(** Evaluate one batch element to its un-serialized response object: a
    parse failure becomes an error object, [shutdown] is refused with
    [Invalid_request], anything else dispatches.  [~blocking:false] may
    raise {!Session.Busy} — the reactor keeps the already-evaluated
    prefix and hands the remainder to a worker. *)

val handle_envelope :
  t ->
  conn ->
  (Protocol.envelope, Protocol.error_code * string) result ->
  outcome
(** Dispatch a parsed line (the transport parses once, classifies with
    {!heavy_envelope}, then dispatches); never raises — every failure
    becomes an error response.  A batch answers with one array line;
    [shutdown] inside a batch is refused with [Invalid_request]. *)

val handle_line : t -> conn -> string -> outcome
(** [Protocol.envelope_of_line] then {!handle_envelope}. *)

val heavy_request : Protocol.request -> bool
(** Whether a request can do solver-scale work and so belongs on a
    worker domain rather than inline on the reactor: [open], [lint] and
    [update]; any request that may implicitly open a file (a ["file"]
    parameter); and any query whose opts can run the CS solver or bound
    the work ([tier=cs], a deadline, or a floor).  [tier=ci] and its
    retired spellings [demand] and [dyck] read the live solution and
    stay light.  The class reads only the request, not the session. *)

val heavy_envelope :
  (Protocol.envelope, Protocol.error_code * string) result -> bool
(** {!heavy_request} over a parsed line: true when the request (or, for
    a batch, any element) is heavy; false for unparsable lines (their
    error reply is cheap). *)

val heavy_line : string -> bool
(** [Protocol.envelope_of_line] then {!heavy_envelope}. *)
