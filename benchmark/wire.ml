type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;  (* start of unread data *)
  mutable len : int;  (* end of unread data *)
}

exception Closed

let reply_timeout = 300.

(* how long connect retries while the server starts *)
let connect_timeout = 30.

let connect path =
  let deadline = Unix.gettimeofday () +. connect_timeout in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.01;
      attempt ()
    | exception e ->
      Unix.close fd;
      raise e
  in
  attempt ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t line =
  let b = Bytes.unsafe_of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write t.fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> raise Closed
  in
  go 0

let rec recv t =
  match Bytes.index_from_opt t.buf t.pos '\n' with
  | Some i when i < t.len ->
    let line = Bytes.sub_string t.buf t.pos (i - t.pos) in
    t.pos <- i + 1;
    line
  | _ ->
    if t.pos > 0 then begin
      Bytes.blit t.buf t.pos t.buf 0 (t.len - t.pos);
      t.len <- t.len - t.pos;
      t.pos <- 0
    end;
    if t.len = Bytes.length t.buf then begin
      let bigger = Bytes.create (2 * t.len) in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    (match Unix.select [ t.fd ] [] [] reply_timeout with
    | [], _, _ -> failwith "no reply from the server within 300 s"
    | _ -> ());
    let k =
      try Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len)
      with Unix.Unix_error (ECONNRESET, _, _) -> 0
    in
    if k = 0 then raise Closed;
    t.len <- t.len + k;
    recv t

let request_line ~id meth params =
  Ejson.to_compact_string
    (Ejson.Assoc
       [ ("id", Ejson.Int id); ("method", Ejson.String meth); ("params", params) ])

let reply ~id line =
  match Ejson.of_string line with
  | exception Ejson.Parse_error msg -> Error ("unparsable reply: " ^ msg)
  | json -> (
    match (Ejson.member "id" json, Ejson.member "result" json) with
    | Some (Ejson.Int i), Some r when i = id -> Ok r
    | Some (Ejson.Int i), _ when i <> id ->
      Error (Printf.sprintf "reply to id %d, expected %d" i id)
    | _ -> (
      match Ejson.member "error" json with
      | Some e -> Error (Ejson.to_compact_string e)
      | None -> Error ("malformed reply: " ^ line)))

let call t ~id meth params =
  send t (request_line ~id meth params);
  reply ~id (recv t)
