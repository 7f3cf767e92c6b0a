type span = {
  name : string;
  id : int;
  parent : int;
  pid : int;
  start : float;
  stop : float;
  alloc : float;
}

let dur s = s.stop -. s.start

(* (index, span), newest first; an index is reserved when a span opens so
   that nested spans can name it as their parent *)
let recorded : (int * span) list ref = ref []
let next_index = ref 0
let open_spans : int list ref = ref []
let current_id = ref 0
let origin = Unix.gettimeofday ()

let reserve () =
  let i = !next_index in
  incr next_index;
  i

let request id f =
  let saved = !current_id in
  current_id := id;
  Fun.protect ~finally:(fun () -> current_id := saved) f

let add s =
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  recorded := (reserve (), { s with parent; id = !current_id }) :: !recorded

let timed name f =
  let idx = reserve () in
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := idx :: !open_spans;
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let v = Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f in
  let t1 = Unix.gettimeofday () in
  let s =
    {
      name;
      id = !current_id;
      parent;
      pid = 1;
      start = t0;
      stop = t1;
      alloc = Gc.allocated_bytes () -. a0;
    }
  in
  recorded := (idx, s) :: !recorded;
  (v, s)

let by_start l =
  List.stable_sort (fun (_, a) (_, b) -> Float.compare a.start b.start) (List.rev l)

let spans () = List.map snd (by_start !recorded)

let write path =
  let us t = Ejson.Float (1e6 *. t) in
  let event (idx, s) =
    let cat =
      match String.index_opt s.name '.' with
      | Some i -> String.sub s.name 0 i
      | None -> s.name
    in
    Ejson.Assoc
      [
        ("name", Ejson.String s.name);
        ("cat", Ejson.String cat);
        ("ph", Ejson.String "X");
        ("ts", us (s.start -. origin));
        ("dur", us (dur s));
        ("pid", Ejson.Int s.pid);
        ("tid", Ejson.Int 1);
        ( "args",
          Ejson.Assoc
            [
              ("span", Ejson.Int idx);
              ("parent", Ejson.Int s.parent);
              ("id", Ejson.Int s.id);
              ("alloc_mb", Ejson.Float (s.alloc /. 1048576.));
            ] );
      ]
  in
  let json =
    Ejson.Assoc
      [
        ("traceEvents", Ejson.List (List.map event (by_start !recorded)));
        ("displayTimeUnit", Ejson.String "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Ejson.to_compact_string json);
      output_char oc '\n')
