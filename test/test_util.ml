(* Helpers shared by the test suites. *)

(* The analysis of an Engine.analyze request; an unbudgeted exhaustive
   request always reaches the ci tier, so anything else fails the test. *)
let analysis ?config ?cache ?(req = Engine.default_request) input =
  match Engine.analyze ?config ?cache req input with
  | Ok { Engine.td_analysis = Some a; _ } -> a
  | Ok td ->
    Alcotest.failf "no analysis at tier %s"
      (Engine.string_of_tier td.Engine.td_tier)
  | Error e -> Alcotest.fail (Engine.error_message e)
