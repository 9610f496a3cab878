(* Regenerates the paper's Table 1: the four models as the 2x2 grid of
   activation (simultaneous or free) and message freezing. *)

module M = Wb_model.Model
module J = Wb_obs.Json

let run ?(seed = 2012) ?(fast = false) ?out () =
  let rep = Report.create ~bench:"table1" ~seed ~fast () in
  Harness.section "Table 1 — the four models";
  print_endline (M.table1 ());
  List.iter
    (fun m ->
      Report.add_row rep ~name:(M.name m)
        [ ("simultaneous", J.Bool (M.simultaneous m));
          ("frozen_at_activation", J.Bool (M.frozen_at_activation m)) ])
    M.all;
  Report.write ?out rep
