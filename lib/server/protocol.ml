(* The wire format of the alias-query server: line-delimited JSON-RPC.

   One request per line, one response per line, in request order per
   connection.  The shape follows JSON-RPC 2.0 (id / method / params on
   the way in, id / result-or-error on the way out) without the
   "jsonrpc" version field — the transport is a private Unix-domain
   socket or stdio pipe, not the open internet.  Ejson's compact printer
   guarantees a serialized value never contains a newline, so framing is
   just [input_line]. *)

(* The protocol version this server speaks.  Version 1 is the original
   surface (no budgets); version 2 adds deadline_ms/min_tier/tier
   parameters, tier-tagged responses, and the resource-governance error
   codes; version 3 adds mode=demand|exhaustive on "open", tier=demand
   on "may_alias", and per-tier answer counts in "stats" (the lazy
   demand tier is gone: "demand" now opens an exhaustive session and
   answers at ci, whose verdicts it always equaled); version 4 added a
   Dyck-reachability tier through mode=dyck on "open" and tier=dyck /
   min_tier=dyck on queries (that tier is gone too: mode=dyck opens an
   exhaustive session, and tier=dyck and min_tier=dyck read as ci, the
   nearest tier that keeps a dyck floor's promise of a node-level
   answer); version 5 adds incremental re-analysis: the "update"
   method re-solves a live exhaustive session in place against its
   previous solution (only procedures whose canonical digest changed are
   re-solved), replying with the incr_* counters and the new session id;
   version 6 adds request batching (one line carrying a JSON array of
   request objects, answered by one line carrying the array of responses
   in the same order) and the nested "opts" query-options object shared
   by may_alias/points_to/modref (the v5 flat tier/deadline_ms/min_tier
   parameters remain accepted).  A v6 "open" may carry "jobs", which
   once sharded the CI solve across domains; the solve is always
   sequential now, and the parameter is accepted and ignored.
   Requests may carry a "protocol" param: absent and 1..6 are accepted
   (older clients never send the newer parameters, so each version's
   behavior is a strict superset); anything else is rejected with
   [Unsupported_version]. *)
let protocol_version = 6

let capabilities =
  [
    "budgets"; "deadlines"; "tiers"; "cancellation"; "backpressure";
    "incremental"; "batch";
  ]

(* JSON-RPC reserves -32768..-32000; the server-defined codes sit just
   above the reserved block. *)
type error_code =
  | Parse_error  (* -32700: the line is not JSON *)
  | Invalid_request  (* -32600: JSON, but not a request object *)
  | Method_not_found  (* -32601 *)
  | Invalid_params  (* -32602 *)
  | Internal_error  (* -32603: a bug, reported with the exception text *)
  | Session_not_found  (* -32001: no such (or no default) session *)
  | Frontend_error  (* -32002: unreadable file or a C frontend error *)
  | Shutting_down  (* -32003: request raced a server shutdown *)
  | Unsupported_version  (* -32004: a "protocol" value we don't speak *)
  | Budget_exhausted  (* -32005: deadline/ceiling tripped above the floor *)
  | Cancelled  (* -32006: the in-flight solve was cancelled *)
  | Overloaded  (* -32007: the pool backlog is full, retry this request later *)
  | Tier_unavailable  (* -32008: query needs a tier the session lacks *)

let int_of_error_code = function
  | Parse_error -> -32700
  | Invalid_request -> -32600
  | Method_not_found -> -32601
  | Invalid_params -> -32602
  | Internal_error -> -32603
  | Session_not_found -> -32001
  | Frontend_error -> -32002
  | Shutting_down -> -32003
  | Unsupported_version -> -32004
  | Budget_exhausted -> -32005
  | Cancelled -> -32006
  | Overloaded -> -32007
  | Tier_unavailable -> -32008

let error_code_of_int = function
  | -32700 -> Some Parse_error
  | -32600 -> Some Invalid_request
  | -32601 -> Some Method_not_found
  | -32602 -> Some Invalid_params
  | -32603 -> Some Internal_error
  | -32001 -> Some Session_not_found
  | -32002 -> Some Frontend_error
  | -32003 -> Some Shutting_down
  | -32004 -> Some Unsupported_version
  | -32005 -> Some Budget_exhausted
  | -32006 -> Some Cancelled
  | -32007 -> Some Overloaded
  | -32008 -> Some Tier_unavailable
  | _ -> None

let string_of_error_code = function
  | Parse_error -> "parse-error"
  | Invalid_request -> "invalid-request"
  | Method_not_found -> "method-not-found"
  | Invalid_params -> "invalid-params"
  | Internal_error -> "internal-error"
  | Session_not_found -> "session-not-found"
  | Frontend_error -> "frontend-error"
  | Shutting_down -> "shutting-down"
  | Unsupported_version -> "unsupported-version"
  | Budget_exhausted -> "budget-exhausted"
  | Cancelled -> "cancelled"
  | Overloaded -> "overloaded"
  | Tier_unavailable -> "tier-unavailable"

(* ---- requests ------------------------------------------------------------------- *)

type request = {
  rq_id : Ejson.t;  (* Int or String; Null when the client sent none *)
  rq_method : string;
  rq_params : Ejson.t;  (* Assoc; Null when absent *)
}

let request_of_json json =
  match json with
  | Ejson.Assoc _ -> (
    let id = Option.value ~default:Ejson.Null (Ejson.member "id" json) in
    match Ejson.member "method" json with
    | Some (Ejson.String m) when m <> "" -> (
      match Ejson.member "params" json with
      | None | Some Ejson.Null ->
        Ok { rq_id = id; rq_method = m; rq_params = Ejson.Null }
      | Some (Ejson.Assoc _ as params) ->
        Ok { rq_id = id; rq_method = m; rq_params = params }
      | Some _ -> Error (Invalid_request, "\"params\" must be an object"))
    | Some _ -> Error (Invalid_request, "\"method\" must be a non-empty string")
    | None -> Error (Invalid_request, "missing \"method\""))
  | _ -> Error (Invalid_request, "a request must be a JSON object")

let request_of_line line =
  match Ejson.of_string line with
  | json -> request_of_json json
  | exception Ejson.Parse_error msg -> Error (Parse_error, msg)

let request_to_json rq =
  Ejson.Assoc
    ((match rq.rq_id with Ejson.Null -> [] | id -> [ ("id", id) ])
    @ [ ("method", Ejson.String rq.rq_method) ]
    @ (match rq.rq_params with Ejson.Null -> [] | p -> [ ("params", p) ]))

let request_line ?id ~meth ~params () =
  let rq_id = match id with Some i -> Ejson.Int i | None -> Ejson.Null in
  Ejson.to_compact_string
    (request_to_json { rq_id; rq_method = meth; rq_params = params })

(* ---- batch envelope (v6) -------------------------------------------------------- *)

(* A line is either one request object or a JSON array of them.  The
   array must be non-empty, element-count-bounded, and every element
   must at least be an object — a malformed *object* element (say, a
   missing method) degrades to a per-element error response, but a
   structurally alien array ([1,2,3]) rejects the whole line, matching
   the pre-v6 behavior for non-object lines. *)
type envelope =
  | Single of request
  | Batch of (request, error_code * string) result list

let max_batch = 512

let envelope_of_line line =
  match Ejson.of_string line with
  | exception Ejson.Parse_error msg -> Error (Parse_error, msg)
  | Ejson.List [] -> Error (Invalid_request, "a batch must not be empty")
  | Ejson.List items ->
    if List.exists (function Ejson.Assoc _ -> false | _ -> true) items then
      Error (Invalid_request, "every batch element must be a request object")
    else if List.length items > max_batch then
      Error
        ( Invalid_request,
          Printf.sprintf "batch too large (max %d requests)" max_batch )
    else Ok (Batch (List.map request_of_json items))
  | json -> (
    match request_of_json json with
    | Ok rq -> Ok (Single rq)
    | Error e -> Error e)

let batch_line requests =
  Ejson.to_compact_string (Ejson.List (List.map request_to_json requests))

(* ---- responses ------------------------------------------------------------------ *)

let ok_response_json ~id result = Ejson.Assoc [ ("id", id); ("result", result) ]

let error_response_json ?data ~id code message =
  Ejson.Assoc
    [
      ("id", id);
      ( "error",
        Ejson.Assoc
          ([
             ("code", Ejson.Int (int_of_error_code code));
             ("name", Ejson.String (string_of_error_code code));
             ("message", Ejson.String message);
           ]
          @ match data with Some d -> [ ("data", d) ] | None -> []) );
    ]

let ok_response ~id result = Ejson.to_compact_string (ok_response_json ~id result)

let error_response ?data ~id code message =
  Ejson.to_compact_string (error_response_json ?data ~id code message)

let batch_response replies = Ejson.to_compact_string (Ejson.List replies)

type response = {
  rs_id : Ejson.t;
  rs_result : (Ejson.t, error_code * string) result;
  rs_error_data : Ejson.t option;
      (* the structured "data" payload of an error response, if any *)
}

let response_of_json json =
  let id = Option.value ~default:Ejson.Null (Ejson.member "id" json) in
  match Ejson.member "error" json with
  | Some err ->
    let code =
      match Ejson.member "code" err with
      | Some (Ejson.Int c) ->
        Option.value ~default:Internal_error (error_code_of_int c)
      | _ -> Internal_error
    in
    let message =
      match Ejson.member "message" err with
      | Some (Ejson.String m) -> m
      | _ -> "unknown error"
    in
    Ok
      {
        rs_id = id;
        rs_result = Error (code, message);
        rs_error_data = Ejson.member "data" err;
      }
  | None -> (
    match Ejson.member "result" json with
    | Some result -> Ok { rs_id = id; rs_result = Ok result; rs_error_data = None }
    | None -> Error "response has neither \"result\" nor \"error\"")

let response_of_line line =
  match Ejson.of_string line with
  | exception Ejson.Parse_error msg -> Error ("unparsable response: " ^ msg)
  | json -> response_of_json json

(* A batched request is answered by one line holding the array of
   responses in request order. *)
let batch_responses_of_line line =
  match Ejson.of_string line with
  | exception Ejson.Parse_error msg -> Error ("unparsable batch response: " ^ msg)
  | Ejson.List items ->
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match response_of_json item with
        | Ok r -> parse (r :: acc) rest
        | Error e -> Error e)
    in
    parse [] items
  | _ -> Error "a batch response must be a JSON array"

(* ---- parameter accessors -------------------------------------------------------- *)

(* Raised by handlers on malformed parameters; the dispatcher maps it to
   an [Invalid_params] response. *)
exception Bad_params of string

let bad_params fmt = Printf.ksprintf (fun msg -> raise (Bad_params msg)) fmt

let opt_string_param params name =
  match Ejson.member name params with
  | None | Some Ejson.Null -> None
  | Some (Ejson.String s) -> Some s
  | Some _ -> bad_params "parameter %S must be a string" name

let string_param params name =
  match opt_string_param params name with
  | Some s -> s
  | None -> bad_params "missing parameter %S" name

let opt_int_param params name =
  match Ejson.member name params with
  | None | Some Ejson.Null -> None
  | Some (Ejson.Int i) -> Some i
  | Some _ -> bad_params "parameter %S must be an integer" name

let int_param params name =
  match opt_int_param params name with
  | Some i -> i
  | None -> bad_params "missing parameter %S" name

let bool_param ~default params name =
  match Ejson.member name params with
  | None | Some Ejson.Null -> default
  | Some (Ejson.Bool b) -> b
  | Some _ -> bad_params "parameter %S must be a boolean" name

let string_list_param params name =
  match Ejson.member name params with
  | None | Some Ejson.Null -> []
  | Some (Ejson.List items) ->
    List.map
      (function
        | Ejson.String s -> s
        | _ -> bad_params "parameter %S must be a list of strings" name)
      items
  | Some _ -> bad_params "parameter %S must be a list of strings" name

(* ---- query options (v6) --------------------------------------------------------- *)

(* The three governed knobs shared by may_alias/points_to/modref.  v6
   clients send them nested under one "opts" object; v5 clients send
   them as flat parameters.  Both spellings are accepted, with the
   nested object winning field-by-field when both are present. *)
type query_opts = {
  qo_tier : string option;  (* ci | cs; "demand" and "dyck" read as ci *)
  qo_deadline_ms : int option;
  qo_min_tier : string option;
}

let no_query_opts = { qo_tier = None; qo_deadline_ms = None; qo_min_tier = None }

let query_opts_of_params params =
  let flat =
    {
      qo_tier = opt_string_param params "tier";
      qo_deadline_ms = opt_int_param params "deadline_ms";
      qo_min_tier = opt_string_param params "min_tier";
    }
  in
  match Ejson.member "opts" params with
  | None | Some Ejson.Null -> flat
  | Some (Ejson.Assoc _ as opts) ->
    let pick nested fallback = if Option.is_some nested then nested else fallback in
    {
      qo_tier = pick (opt_string_param opts "tier") flat.qo_tier;
      qo_deadline_ms = pick (opt_int_param opts "deadline_ms") flat.qo_deadline_ms;
      qo_min_tier = pick (opt_string_param opts "min_tier") flat.qo_min_tier;
    }
  | Some _ -> bad_params "parameter \"opts\" must be an object"

let query_opts_to_json o =
  let field name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  Ejson.Assoc
    (field "tier" o.qo_tier (fun s -> Ejson.String s)
    @ field "deadline_ms" o.qo_deadline_ms (fun i -> Ejson.Int i)
    @ field "min_tier" o.qo_min_tier (fun s -> Ejson.String s))

let params_with_opts opts fields =
  Ejson.Assoc
    (fields
    @
    if opts = no_query_opts then []
    else [ ("opts", query_opts_to_json opts) ])

(* ---- versioning ----------------------------------------------------------------- *)

exception Version_mismatch of int

(* Accept an absent "protocol" param (legacy v1 clients) and every
   version up to ours: v2 behavior without governed parameters is
   exactly v1 behavior. *)
let check_version params =
  match opt_int_param params "protocol" with
  | None -> ()
  | Some v when v >= 1 && v <= protocol_version -> ()
  | Some v -> raise (Version_mismatch v)

let version_error_data ~requested =
  Ejson.Assoc
    [
      ("requested", Ejson.Int requested);
      ("supported", Ejson.Int protocol_version);
      ( "capabilities",
        Ejson.List (List.map (fun c -> Ejson.String c) capabilities) );
    ]
