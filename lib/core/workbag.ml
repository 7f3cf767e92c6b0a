type schedule = Fifo | Lifo | Random_order of int

type 'a t = {
  mutable items : 'a array;  (* live items in [head, count); others hold [dummy] *)
  dummy : 'a;
  mutable count : int;
  policy : schedule;
  rng : Srng.t;
  mutable head : int;  (* Fifo read cursor *)
  mutable pushed : int;  (* lifetime add count *)
  mutable popped : int;  (* lifetime pop count *)
}

let create ~dummy policy =
  {
    items = Array.make 64 dummy;
    dummy;
    count = 0;
    policy;
    rng = Srng.create (match policy with Random_order seed -> Int64.of_int seed | _ -> 0L);
    head = 0;
    pushed = 0;
    popped = 0;
  }

let is_empty t = t.count = t.head

let add t x =
  if t.count >= Array.length t.items then begin
    let live = t.count - t.head in
    let cap = max 64 (2 * live) in
    let fresh = Array.make cap t.dummy in
    Array.blit t.items t.head fresh 0 live;
    t.items <- fresh;
    t.count <- live;
    t.head <- 0
  end;
  t.items.(t.count) <- x;
  t.count <- t.count + 1;
  t.pushed <- t.pushed + 1

let pop t =
  if is_empty t then invalid_arg "Workbag.pop: empty";
  let idx =
    match t.policy with
    | Fifo -> t.head
    | Lifo -> t.count - 1
    | Random_order _ -> t.head + Srng.int t.rng (t.count - t.head)
  in
  let x = t.items.(idx) in
  (match t.policy with
  | Fifo ->
    t.items.(t.head) <- t.dummy;
    t.head <- t.head + 1
  | Lifo ->
    t.items.(idx) <- t.dummy;
    t.count <- t.count - 1
  | Random_order _ ->
    (* swap with the head slot, then advance the head *)
    t.items.(idx) <- t.items.(t.head);
    t.items.(t.head) <- t.dummy;
    t.head <- t.head + 1);
  t.popped <- t.popped + 1;
  x

let pushed t = t.pushed
let popped t = t.popped

(* ---- steal-capable deque ------------------------------------------------- *)

module Deque = struct
  (* A mutex-guarded ring-buffer deque for the parallel solver's SCC
     task schedule.  The owner pushes tasks in bottom-up topological
     order and [pop]s from the front, so it walks its share of the
     condensation callees-first; thieves [steal] from the back, peeling
     the most caller-ward (least-coupled, not-yet-needed) tasks.  Tasks
     are coarse (one SCC seed each), so a lock per operation is cheap;
     correctness never depends on lock-freedom here. *)
  type 'a t = {
    mutable ring : 'a option array;
    mutable front : int;  (* index of the first element *)
    mutable len : int;
    lock : Mutex.t;
    mutable stolen : int;  (* lifetime steal count *)
  }

  let create () =
    { ring = Array.make 16 None; front = 0; len = 0; lock = Mutex.create (); stolen = 0 }

  let grow t =
    let cap = Array.length t.ring in
    let fresh = Array.make (2 * cap) None in
    for i = 0 to t.len - 1 do
      fresh.(i) <- t.ring.((t.front + i) mod cap)
    done;
    t.ring <- fresh;
    t.front <- 0

  let push t x =
    Mutex.protect t.lock (fun () ->
        if t.len = Array.length t.ring then grow t;
        let cap = Array.length t.ring in
        t.ring.((t.front + t.len) mod cap) <- Some x;
        t.len <- t.len + 1)

  let pop t =
    Mutex.protect t.lock (fun () ->
        if t.len = 0 then None
        else begin
          let cap = Array.length t.ring in
          let x = t.ring.(t.front) in
          t.ring.(t.front) <- None;
          t.front <- (t.front + 1) mod cap;
          t.len <- t.len - 1;
          x
        end)

  let steal t =
    Mutex.protect t.lock (fun () ->
        if t.len = 0 then None
        else begin
          let cap = Array.length t.ring in
          let back = (t.front + t.len - 1) mod cap in
          let x = t.ring.(back) in
          t.ring.(back) <- None;
          t.len <- t.len - 1;
          t.stolen <- t.stolen + 1;
          x
        end)

  let length t = Mutex.protect t.lock (fun () -> t.len)
  let stolen t = Mutex.protect t.lock (fun () -> t.stolen)
end
