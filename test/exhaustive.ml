(* Every adversarial schedule of a protocol, for tests that want a verdict
   or an execution count.  [verify] on [Protocol.opaque p] enumerates the
   whole schedule tree and calls [check] once per execution, so at one job
   it returns the verdict and the number of schedules; it never stops at a
   failing one. *)
open Wb_model

let every_schedule protocol g check =
  match Engine.verify_packed ~jobs:1 (Protocol.opaque protocol) g check with
  | Ok v -> (v.Engine.valid, v.Engine.finals)
  | Error (`Limit l) -> Alcotest.failf "exhaustive check exceeded its limit (%d executions)" l
