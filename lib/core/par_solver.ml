type stats = {
  par_jobs : int;
  par_components : int;
  par_steals : int;
  par_messages : int;
}

let solve ?config ~jobs:_ g =
  ( Ci_solver.solve ?config g,
    { par_jobs = 1; par_components = 0; par_steals = 0; par_messages = 0 } )
