(* Wire frames shared by the codec tests (test_net.ml) and the wire-bytes
   golden (wire_bytes.ml): one sample of every frame shape, and generators
   for random frames and trace contexts. *)

module Wire = Wb_net.Wire

let samples =
  [ Wire.Hello { session = "main"; protocol = "bfs"; node_pref = None };
    Wire.Hello { session = ""; protocol = "x"; node_pref = Some 0 };
    Wire.Hello { session = "s\000binary\255"; protocol = "two-cliques"; node_pref = Some 41 };
    Wire.Hello_ack { session = "main"; node = 3; n = 16; neighbors = [| 0; 7; 15 |]; bound = 37 };
    Wire.Hello_ack { session = "m"; node = 0; n = 1; neighbors = [||]; bound = 0 };
    Wire.Activate_query { round = 1 };
    Wire.Activate_reply { round = 12; activate = true };
    Wire.Activate_reply { round = 1; activate = false };
    Wire.Compose_request { round = 40 };
    Wire.Compose_reply { round = 2; payload = [||] };
    Wire.Compose_reply { round = 7; payload = [| true; false; true; true |] };
    Wire.Write_grant { round = 3; position = 0 };
    Wire.Board_delta { from_pos = 0; generation = 0; messages = [] };
    Wire.Board_delta
      { from_pos = 2;
        generation = 5;
        messages = [ (0, [| true |]); (9, [||]); (3, Array.make 19 false) ] };
    Wire.Run_end { outcome = "success"; detail = "forest[0;1]"; rounds = 9 };
    Wire.Run_end { outcome = "deadlock"; detail = ""; rounds = 40 };
    Wire.Error { code = Wire.Node_taken; detail = "node 3 already claimed" };
    Wire.Error { code = Wire.Server_error; detail = "" };
    Wire.Telemetry_request { tail = 0 };
    Wire.Telemetry_request { tail = 4096 };
    Wire.Telemetry_reply { metrics = "{}"; events = []; dropped = 0 };
    Wire.Telemetry_reply
      { metrics = "{\"counters\":{\"engine.runs\":3}}";
        events = [ "{\"ev\":\"round_start\",\"round\":1}"; "" ];
        dropped = 12 };
    Wire.Metrics_request;
    Wire.Metrics_reply { body = "" };
    Wire.Metrics_reply { body = "# TYPE x counter\nx_total 1\n# EOF\n" } ]

let gen_frame =
  let open QCheck.Gen in
  let nat = frequency [ (6, 0 -- 60); (1, return 0); (1, 1000 -- 2_000_000) ] in
  let str = string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 12) in
  let bits = map Array.of_list (list_size (0 -- 48) bool) in
  let code =
    oneofl
      [ Wire.Bad_hello; Wire.Unknown_protocol; Wire.Protocol_mismatch; Wire.Session_busy;
        Wire.Node_taken; Wire.Unexpected_frame; Wire.Malformed; Wire.Timed_out;
        Wire.Server_error ]
  in
  oneof
    [ (str >>= fun session -> str >>= fun protocol -> opt nat >>= fun node_pref ->
       return (Wire.Hello { session; protocol; node_pref }));
      (str >>= fun session -> nat >>= fun node -> nat >>= fun n ->
       list_size (0 -- 8) nat >>= fun neighbors -> nat >>= fun bound ->
       return (Wire.Hello_ack { session; node; n; neighbors = Array.of_list neighbors; bound }));
      (nat >>= fun round -> return (Wire.Activate_query { round }));
      (nat >>= fun round -> bool >>= fun activate -> return (Wire.Activate_reply { round; activate }));
      (nat >>= fun round -> return (Wire.Compose_request { round }));
      (nat >>= fun round -> bits >>= fun payload -> return (Wire.Compose_reply { round; payload }));
      (nat >>= fun round -> nat >>= fun position -> return (Wire.Write_grant { round; position }));
      (nat >>= fun from_pos -> nat >>= fun generation ->
       list_size (0 -- 6) (nat >>= fun a -> bits >>= fun p -> return (a, p)) >>= fun messages ->
       return (Wire.Board_delta { from_pos; generation; messages }));
      (str >>= fun outcome -> str >>= fun detail -> nat >>= fun rounds ->
       return (Wire.Run_end { outcome; detail; rounds }));
      return Wire.Metrics_request;
      (str >>= fun body -> return (Wire.Metrics_reply { body }));
      (code >>= fun code -> str >>= fun detail -> return (Wire.Error { code; detail })) ]

let gen_ctx =
  QCheck.Gen.(
    map2
      (fun trace span -> { Wb_obs.Span.trace = 1 + trace; span = 1 + span })
      (0 -- 0xFF_FFFF) (0 -- 0xFF_FFFF))
