type reason = Deadline | Transfer_limit | Meet_limit | Cancelled

exception Exhausted of reason

let string_of_reason = function
  | Deadline -> "deadline"
  | Transfer_limit -> "transfer-limit"
  | Meet_limit -> "meet-limit"
  | Cancelled -> "cancelled"

let reason_of_string = function
  | "deadline" -> Some Deadline
  | "transfer-limit" -> Some Transfer_limit
  | "meet-limit" -> Some Meet_limit
  | "cancelled" -> Some Cancelled
  | _ -> None

type limits = {
  deadline_s : float option;
  max_transfers : int option;
  max_meets : int option;
}

let no_limits = { deadline_s = None; max_transfers = None; max_meets = None }

let limits_with_deadline s = { no_limits with deadline_s = Some s }

type t = {
  started : float;
  deadline : float option;  (* absolute, Unix.gettimeofday scale *)
  max_transfers : int;  (* max_int = unlimited *)
  max_meets : int;
  cancelled : bool Atomic.t;  (* shared across [restart]ed tiers *)
  mutable n_transfers : int;
  mutable n_meets : int;
  mutable until_slow_check : int;  (* countdown to the next clock sample *)
}

(* Wall-clock sampling cadence.  A transfer function costs at least a
   few hundred nanoseconds, so ~1k ticks between gettimeofday calls
   keeps checkpoint overhead well under 1% while bounding deadline
   overshoot to a few milliseconds on realistic inputs. *)
let check_interval = 1024

let start limits =
  let now = Unix.gettimeofday () in
  {
    started = now;
    deadline = Option.map (fun s -> now +. s) limits.deadline_s;
    max_transfers = Option.value ~default:max_int limits.max_transfers;
    max_meets = Option.value ~default:max_int limits.max_meets;
    cancelled = Atomic.make false;
    n_transfers = 0;
    n_meets = 0;
    (* first slow check happens almost immediately so an already-expired
       deadline trips before any real work is sunk *)
    until_slow_check = 1;
  }

let unlimited () = start no_limits

let restart t =
  {
    started = Unix.gettimeofday ();
    deadline = t.deadline;
    max_transfers = t.max_transfers;
    max_meets = t.max_meets;
    cancelled = t.cancelled;
    n_transfers = 0;
    n_meets = 0;
    until_slow_check = 1;
  }

let cancel t = Atomic.set t.cancelled true
let is_cancelled t = Atomic.get t.cancelled

let slow_check_poll t =
  t.until_slow_check <- check_interval;
  if Atomic.get t.cancelled then Some Cancelled
  else
    match t.deadline with
    | Some d when Unix.gettimeofday () > d -> Some Deadline
    | _ -> None

let exhausted t =
  if t.n_transfers > t.max_transfers then Some Transfer_limit
  else if t.n_meets > t.max_meets then Some Meet_limit
  else slow_check_poll t

let check_now t =
  match exhausted t with Some r -> raise (Exhausted r) | None -> ()

let tick t n =
  t.until_slow_check <- t.until_slow_check - n;
  if t.until_slow_check <= 0 then
    match slow_check_poll t with Some r -> raise (Exhausted r) | None -> ()

let tick_transfers t n =
  t.n_transfers <- t.n_transfers + n;
  if t.n_transfers > t.max_transfers then raise (Exhausted Transfer_limit);
  tick t n

let tick_meets t n =
  t.n_meets <- t.n_meets + n;
  if t.n_meets > t.max_meets then raise (Exhausted Meet_limit);
  tick t n

let tick_transfer t = tick_transfers t 1
let tick_meet t = tick_meets t 1

let transfers t = t.n_transfers
let meets t = t.n_meets

let remaining_s t =
  Option.map (fun d -> d -. Unix.gettimeofday ()) t.deadline

let consumption t =
  let fields =
    [
      ("transfers", `Int t.n_transfers);
      ("meets", `Int t.n_meets);
      ("elapsed_s", `Float (Unix.gettimeofday () -. t.started));
    ]
  in
  match t.deadline with
  | Some d -> fields @ [ ("deadline_s", `Float (d -. t.started)) ]
  | None -> fields
