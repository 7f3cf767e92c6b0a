type t = {
  name : string;
  target_lines : int;
  n_list_types : int;
  n_record_types : int;
  n_int_globals : int;
  n_ptr_globals : int;
  n_arrays : int;
  n_buffers : int;
  multi_target : bool;
  use_funptr : bool;
  string_heavy : bool;
  list_exchange : bool;
  n_stashers : int;
  call_depth : int option;
  fan_in : int;
}

let default ~name ~target_lines =
  let scale = max 1 (target_lines / 400) in
  {
    name;
    target_lines;
    n_list_types = min 4 (1 + (scale / 2));
    n_record_types = min 3 (1 + (scale / 3));
    n_int_globals = min 12 (3 + scale);
    n_ptr_globals = min 6 (2 + (scale / 2));
    n_arrays = min 4 (1 + (scale / 3));
    n_buffers = min 3 (1 + (scale / 4));
    multi_target = true;
    use_funptr = false;
    string_heavy = false;
    list_exchange = false;
    n_stashers = 1;
    call_depth = None;
    fan_in = 0;
  }

(* A linux-flavoured scale preset: two orders of magnitude past the
   paper's suite.  Deep call chains model the subsystem -> driver ->
   helper layering of a kernel tree, wide fan-in models shared utility
   routines with many callers; both shapes stress the interprocedural
   store chains that dominate the CI solve (long call paths, callees
   with many callers). *)
let linux ~target_lines =
  let base =
    default
      ~name:(Printf.sprintf "linux%dk" (max 1 (target_lines / 1000)))
      ~target_lines
  in
  {
    base with
    n_list_types = 4;
    n_record_types = 3;
    n_int_globals = 12;
    n_ptr_globals = 6;
    n_arrays = 4;
    n_buffers = 3;
    use_funptr = true;
    list_exchange = true;
    n_stashers = max 2 (target_lines / 12_000);
    call_depth = Some 24;
    fan_in = 2;
  }
