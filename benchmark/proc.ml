external wait4 : int -> int * int * int = "bench_wait4"

type outcome = { wall_s : float; code : int; rss_mb : float }

(* pid -> spawn time, for every child not reaped yet *)
let live : (int, float) Hashtbl.t = Hashtbl.create 8

let output = function
  | Some path -> Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  | None -> Unix.openfile "/dev/null" [ O_WRONLY; O_CLOEXEC ] 0

let start ?stdout ?stderr prog args =
  let out = output stdout in
  let err = match stderr with Some _ -> output stderr | None -> Unix.dup ~cloexec:true Unix.stderr in
  let stdin = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; stdin ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) stdin out err)
  in
  Hashtbl.replace live pid t0;
  pid

let reap pid =
  let kind, code, maxrss_kb = wait4 pid in
  let t1 = Unix.gettimeofday () in
  let t0 = Option.value ~default:t1 (Hashtbl.find_opt live pid) in
  Hashtbl.remove live pid;
  {
    wall_s = t1 -. t0;
    code = (if kind = 0 then code else 128 + code);
    rss_mb = float_of_int maxrss_kb /. 1024.;
  }

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let run ?stdout prog args = reap (start ?stdout prog args)

let () =
  at_exit (fun () ->
      Hashtbl.fold (fun pid _ acc -> pid :: acc) live []
      |> List.iter (fun pid -> ignore (kill pid)))
