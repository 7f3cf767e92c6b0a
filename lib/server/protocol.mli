(** The wire format of the alias-query server: line-delimited JSON-RPC.

    One request per line, one response per line, in request order per
    connection.  The shape follows JSON-RPC 2.0 (id / method / params in,
    id / result-or-error out) without the "jsonrpc" version field.
    {!Ejson.to_compact_string} guarantees a serialized value never
    contains a newline, so framing is just [input_line]. *)

val protocol_version : int
(** The version this implementation speaks (6: batching — one line may
    carry a JSON array of request objects, answered by one line carrying
    the array of responses in request order — plus the nested ["opts"]
    query-options object shared by the query methods).  Requests may
    carry a ["protocol"] parameter: absent and every version up to
    [protocol_version] are accepted — each version's parameters are a
    strict superset of the previous surface — anything newer is rejected
    with {!Unsupported_version}.  A v6 [open] may still carry ["jobs"],
    which once sharded its CI solve; it is accepted and ignored. *)

val capabilities : string list
(** Feature tags advertised by [ping]: ["budgets"; "deadlines"; "tiers";
    "cancellation"; "backpressure"; "dyck"; "incremental"; "batch"]. *)

type error_code =
  | Parse_error  (** -32700: the line is not JSON *)
  | Invalid_request  (** -32600: JSON, but not a request object *)
  | Method_not_found  (** -32601 *)
  | Invalid_params  (** -32602 *)
  | Internal_error  (** -32603: a bug, reported with the exception text *)
  | Session_not_found  (** -32001: no such (or no default) session *)
  | Frontend_error  (** -32002: unreadable file or a C frontend error *)
  | Shutting_down  (** -32003: request raced a server shutdown *)
  | Unsupported_version  (** -32004: a ["protocol"] value we don't speak *)
  | Budget_exhausted
      (** -32005: the request's deadline or ceiling tripped and the
          requested [min_tier] forbade degrading further *)
  | Cancelled  (** -32006: the in-flight solve was cancelled *)
  | Overloaded
      (** -32007: per-request backpressure — the reactor's pool backlog
          is full, so this heavy request was refused while the
          connection stays open and cheap queries keep flowing; retry
          after a backoff *)
  | Tier_unavailable
      (** -32008: the query needs a precision tier the session's
          (degraded) solution cannot answer, e.g. VDG node ids below
          [ci] *)

val int_of_error_code : error_code -> int
val error_code_of_int : int -> error_code option
val string_of_error_code : error_code -> string

type request = {
  rq_id : Ejson.t;  (** Int or String; Null when the client sent none *)
  rq_method : string;
  rq_params : Ejson.t;  (** Assoc; Null when absent *)
}

val request_of_line : string -> (request, error_code * string) result
val request_of_json : Ejson.t -> (request, error_code * string) result
val request_to_json : request -> Ejson.t

val request_line : ?id:int -> meth:string -> params:Ejson.t -> unit -> string
(** One serialized request line (no trailing newline), for clients. *)

(** {2 Batch envelope (v6)}

    One line may carry a JSON array of request objects instead of a
    single one.  The server answers with one line carrying the JSON
    array of responses, in request order. *)

(** A parsed inbound line: one request, or a batch of per-element parse
    results (an object element that fails request validation degrades to
    a per-element error response rather than rejecting the batch). *)
type envelope =
  | Single of request
  | Batch of (request, error_code * string) result list

val max_batch : int
(** Largest accepted batch; longer arrays are rejected whole with
    [Invalid_request]. *)

val envelope_of_line : string -> (envelope, error_code * string) result
(** Whole-line rejections: non-JSON, a non-object non-array value, an
    empty array, an array over {!max_batch}, or an array containing a
    non-object element. *)

val batch_line : request list -> string
(** One serialized batch line (no trailing newline), for clients. *)

val ok_response : id:Ejson.t -> Ejson.t -> string

val error_response :
  ?data:Ejson.t -> id:Ejson.t -> error_code -> string -> string
(** [data], when given, becomes the structured ["data"] member of the
    error object (e.g. the achieved tier of a budget-exhausted solve). *)

val ok_response_json : id:Ejson.t -> Ejson.t -> Ejson.t
val error_response_json : ?data:Ejson.t -> id:Ejson.t -> error_code -> string -> Ejson.t
(** The un-serialized response objects, for assembling batch replies. *)

val batch_response : Ejson.t list -> string
(** Serialize an ordered list of response objects as one reply line. *)

type response = {
  rs_id : Ejson.t;
  rs_result : (Ejson.t, error_code * string) result;
  rs_error_data : Ejson.t option;
      (** the structured ["data"] payload of an error response, if any *)
}

val response_of_line : string -> (response, string) result
(** Client-side parse; [Error] only when the line itself is not a
    well-formed response envelope. *)

val batch_responses_of_line : string -> (response list, string) result
(** Client-side parse of a batch reply line (a JSON array of response
    objects, in request order). *)

(** {2 Parameter accessors}

    All raise {!Bad_params} on a type mismatch; the dispatcher maps it to
    an [Invalid_params] response. *)

exception Bad_params of string

val bad_params : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad_params} with a formatted message. *)

val string_param : Ejson.t -> string -> string
val opt_string_param : Ejson.t -> string -> string option
val int_param : Ejson.t -> string -> int
val opt_int_param : Ejson.t -> string -> int option
val bool_param : default:bool -> Ejson.t -> string -> bool
val string_list_param : Ejson.t -> string -> string list
(** Missing parameter means [[]]. *)

(** {2 Query options (v6)}

    The three governed knobs shared by [may_alias], [points_to] and
    [modref], collapsed into one record.  v6 clients send them nested
    under one ["opts"] object; v5 clients send them as flat
    [tier]/[deadline_ms]/[min_tier] parameters.  {!query_opts_of_params}
    accepts both, the nested object winning field-by-field. *)

type query_opts = {
  qo_tier : string option;  (** [ci | cs | dyck]; ["demand"] reads as [ci] *)
  qo_deadline_ms : int option;
  qo_min_tier : string option;
}

val no_query_opts : query_opts

val query_opts_of_params : Ejson.t -> query_opts
(** @raise Bad_params on a type mismatch in either spelling. *)

val query_opts_to_json : query_opts -> Ejson.t
(** The nested ["opts"] object, omitting unset fields. *)

val params_with_opts : query_opts -> (string * Ejson.t) list -> Ejson.t
(** Build a params object carrying [fields] plus the ["opts"] object
    (omitted entirely when [opts = no_query_opts]). *)

(** {2 Versioning} *)

exception Version_mismatch of int

val check_version : Ejson.t -> unit
(** Validate a request's optional ["protocol"] parameter.
    @raise Version_mismatch on a version newer than ours (the dispatcher
    maps it to an {!Unsupported_version} response).
    @raise Bad_params when the parameter is not an integer. *)

val version_error_data : requested:int -> Ejson.t
(** The structured payload of an {!Unsupported_version} response:
    requested and supported versions plus {!capabilities}. *)
