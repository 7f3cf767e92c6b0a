(* Order statistics over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; q in [0, 1].  0 when empty. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let percentile xs q = percentile_sorted (sorted xs) q
let median xs = percentile xs 0.5

(* Quartiles exactly as Python's statistics.quantiles(xs, n=4) (the
   default "exclusive" method), so spreads printed here match a script
   that recomputes them from the per-run values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 0 then 0. else a.(0) in
    (v, v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let sum xs = List.fold_left ( +. ) 0. xs
let max_of xs = List.fold_left Float.max 0. xs

(* A growable float buffer for the serve-warm loop's latency samples. *)
type buf = { mutable data : float array; mutable n : int }

let buf () = { data = Array.make 4096 0.; n = 0 }

let push b v =
  if b.n = Array.length b.data then begin
    let bigger = Array.make (2 * b.n) 0. in
    Array.blit b.data 0 bigger 0 b.n;
    b.data <- bigger
  end;
  b.data.(b.n) <- v;
  b.n <- b.n + 1

let to_sorted b =
  let a = Array.sub b.data 0 b.n in
  Array.sort Float.compare a;
  a
