(* Wb_bench: the schema-2 report envelope and the paper check that fails a
   suite.  The suites' tables themselves are pinned as goldens under
   test/bench. *)

module J = Wb_obs.Json
module Report = Wb_bench.Report

let check msg = Alcotest.(check bool) msg true

let read_file path = In_channel.with_open_bin path In_channel.input_all

let report_tests =
  [ Alcotest.test_case "the envelope carries schema 2 and nothing run-dependent" `Quick
      (fun () ->
        let rep =
          Report.create ~params:[ ("n", J.Int 12) ] ~bench:"unit" ~seed:5 ~fast:true ()
        in
        Report.add_row rep ~name:"grid" [ ("rounds", J.Int 9) ];
        let doc = Report.to_json rep in
        (match doc with
        | J.Obj kvs ->
          Alcotest.(check (list string))
            "exactly the schema-2 members" [ "schema"; "bench"; "seed"; "params"; "rows" ]
            (List.map fst kvs)
        | _ -> Alcotest.fail "the envelope is not an object");
        check "schema is 2" (J.member "schema" doc = Some (J.Int 2));
        check "bench name" (J.member "bench" doc = Some (J.String "unit"));
        check "seed" (J.member "seed" doc = Some (J.Int 5));
        check "params end with fast"
          (J.member "params" doc = Some (J.Obj [ ("n", J.Int 12); ("fast", J.Bool true) ]));
        match J.member "rows" doc with
        | Some (J.List [ J.Obj row ]) ->
          check "the row is named" (List.assoc_opt "name" row = Some (J.String "grid"))
        | _ -> Alcotest.fail "rows missing");
    Alcotest.test_case "default_out derives from the bench name" `Quick (fun () ->
        let rep = Report.create ~bench:"explore" ~seed:1 ~fast:false () in
        Alcotest.(check string) "BENCH_<bench>.json" "BENCH_explore.json"
          (Report.default_out rep));
    Alcotest.test_case "same-seed runs write identical reports" `Quick (fun () ->
        List.iter
          (fun (name, run) ->
            let a = Filename.temp_file "bench" ".json" in
            let b = Filename.temp_file "bench" ".json" in
            run ~out:a;
            run ~out:b;
            Alcotest.(check string) (name ^ " report") (read_file a) (read_file b);
            Sys.remove a;
            Sys.remove b)
          [ ("explore", fun ~out -> Wb_bench.Explore.run ~fast:true ~out ());
            ("chaos", fun ~out -> Wb_bench.Chaos.run ~fast:true ~out ()) ]) ]

let check_tests =
  [ Alcotest.test_case "a false paper check raises" `Quick (fun () ->
        match Wb_bench.Harness.check false "row %d  " 2 with
        | () -> Alcotest.fail "a false check returned"
        | exception Failure msg ->
          Alcotest.(check string) "the message names the row" "paper check failed: row 2" msg) ]

let suites = [ ("bench.report", report_tests); ("bench.check", check_tests) ]
