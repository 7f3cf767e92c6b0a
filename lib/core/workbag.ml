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
