let ts_of_round round = round * 1000

let common ?(pid = 1) ~name ~ph ~ts ~tid extra =
  Json.Obj
    ([ ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid) ]
    @ extra)

let instant ?pid ~name ~round ~tid args =
  common ?pid ~name ~ph:"i" ~ts:(ts_of_round round) ~tid
    (("s", Json.String "t") :: (if List.is_empty args then [] else [ ("args", Json.Obj args) ]))

(* Spans render as Catapult async events ("b"/"e") keyed by span id, so
   nesting across lanes survives and the validator can check causality
   structurally.  [parent] is always present in args — [Null] marks a trace
   root. *)
let span_id span = Printf.sprintf "0x%x" span

let span_begin ?pid ~ts ~trace ~span ~parent ~name ~attrs () =
  common ?pid ~name ~ph:"b" ~ts ~tid:0
    [ ("cat", Json.String "span");
      ("id", Json.String (span_id span));
      ("args",
       Json.Obj
         ([ ("trace", Json.Int trace);
            ("span", Json.Int span);
            ("parent", match parent with None -> Json.Null | Some p -> Json.Int p) ]
         @ List.map (fun (k, v) -> (k, Json.String v)) attrs)) ]

let span_end ?pid ~ts ~span ~name () =
  common ?pid ~name ~ph:"e" ~ts ~tid:0
    [ ("cat", Json.String "span"); ("id", Json.String (span_id span)) ]

let convert events =
  (* Pass 1: node lifetimes (activation round -> write round) and the last
     round, so unfinished slices can be closed at the run's horizon. *)
  let activation = Hashtbl.create 64 in
  let completion = Hashtbl.create 64 in
  let last_round = ref 0 in
  List.iter
    (fun ev ->
      last_round := max !last_round (Event.round ev);
      match ev with
      | Event.Activate { node; round } -> Hashtbl.replace activation node round
      | Event.Write { node; round; _ } -> Hashtbl.replace completion node round
      | _ -> ())
    events;
  let slices =
    Hashtbl.fold
      (fun node a_round acc ->
        let w_round =
          match Hashtbl.find_opt completion node with Some r -> r | None -> !last_round
        in
        let dur = max 1 (w_round - a_round) in
        common
          ~name:(Printf.sprintf "node %d active" (node + 1))
          ~ph:"X" ~ts:(ts_of_round a_round) ~tid:(node + 1)
          [ ("dur", Json.Int (dur * 1000));
            ("args",
             Json.Obj
               [ ("activation_round", Json.Int a_round);
                 ("wrote", Json.Bool (Hashtbl.mem completion node)) ]) ]
        :: acc)
      activation []
  in
  (* Spans share the logical (round) axis of the single-run view; the real
     wall-clock endpoints stay available in the JSONL export.  A stop whose
     start fell outside this event list (ring truncation, sampling windows)
     is dropped so every "e" has a prior "b". *)
  let open_spans = Hashtbl.create 16 in
  let instants =
    List.filter_map
      (fun ev ->
        match ev with
        | Event.Round_start { round } ->
          Some (instant ~name:(Printf.sprintf "round %d" round) ~round ~tid:0 [])
        | Event.Activate _ -> None (* covered by the slice *)
        | Event.Compose { node; round; bits } ->
          Some (instant ~name:"compose" ~round ~tid:(node + 1) [ ("bits", Json.Int bits) ])
        | Event.Adversary_pick { node; round; candidates } ->
          Some
            (instant ~name:"adversary pick" ~round ~tid:0
               [ ("node", Json.Int (node + 1));
                 ("candidates", Json.Int (List.length candidates)) ])
        | Event.Write { node; round; bits; board_bits } ->
          Some
            (instant ~name:"write" ~round ~tid:(node + 1)
               [ ("bits", Json.Int bits); ("board_bits", Json.Int board_bits) ])
        | Event.Deadlock_detected { round } -> Some (instant ~name:"DEADLOCK" ~round ~tid:0 [])
        | Event.Run_end { round; outcome } ->
          Some (instant ~name:"run end" ~round ~tid:0 [ ("outcome", Json.String outcome) ])
        | Event.Span_start { trace; span; parent; name; round; attrs; _ } ->
          Hashtbl.replace open_spans span name;
          Some (span_begin ~ts:(ts_of_round round) ~trace ~span ~parent ~name ~attrs ())
        | Event.Span_stop { span; round; _ } -> (
          match Hashtbl.find_opt open_spans span with
          | Some name -> Some (span_end ~ts:(ts_of_round round) ~span ~name ())
          | None -> None))
      events
  in
  Json.Obj
    [ ("traceEvents", Json.List (slices @ instants)); ("displayTimeUnit", Json.String "ms") ]

let merge shards =
  (* One pid lane per shard, spans on a shared wall-clock axis normalised to
     the earliest span endpoint across all shards.  Classic events have no
     wall time, so each rides at its shard's cursor — the ts of the latest
     span event before it in stream order — which keeps interleaving honest
     without inventing timestamps. *)
  let t0 =
    List.fold_left
      (fun acc (_, events) ->
        List.fold_left
          (fun acc ev ->
            match ev with
            | Event.Span_start { ts_us; _ } | Event.Span_stop { ts_us; _ } -> min acc ts_us
            | _ -> acc)
          acc events)
      max_int shards
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let shard_events i (label, events) =
    let pid = i + 1 in
    let meta =
      Json.Obj
        [ ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int pid);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String label) ]) ]
    in
    let open_spans = Hashtbl.create 16 in
    let cursor = ref 0 in
    let rendered =
      List.filter_map
        (fun ev ->
          match ev with
          | Event.Span_start { trace; span; parent; name; ts_us; attrs; _ } ->
            let ts = max 0 (ts_us - t0) in
            cursor := ts;
            Hashtbl.replace open_spans span name;
            Some (span_begin ~pid ~ts ~trace ~span ~parent ~name ~attrs ())
          | Event.Span_stop { span; ts_us; _ } -> (
            let ts = max 0 (ts_us - t0) in
            cursor := ts;
            match Hashtbl.find_opt open_spans span with
            | Some name -> Some (span_end ~pid ~ts ~span ~name ())
            | None -> None)
          | Event.Round_start { round } ->
            Some
              (common ~pid ~name:(Printf.sprintf "round %d" round) ~ph:"i" ~ts:!cursor ~tid:0
                 [ ("s", Json.String "t") ])
          | Event.Activate { node; _ } ->
            Some
              (common ~pid ~name:"activate" ~ph:"i" ~ts:!cursor ~tid:(node + 1)
                 [ ("s", Json.String "t") ])
          | Event.Compose { node; bits; _ } ->
            Some
              (common ~pid ~name:"compose" ~ph:"i" ~ts:!cursor ~tid:(node + 1)
                 [ ("s", Json.String "t"); ("args", Json.Obj [ ("bits", Json.Int bits) ]) ])
          | Event.Adversary_pick _ -> None
          | Event.Write { node; bits; _ } ->
            Some
              (common ~pid ~name:"write" ~ph:"i" ~ts:!cursor ~tid:(node + 1)
                 [ ("s", Json.String "t"); ("args", Json.Obj [ ("bits", Json.Int bits) ]) ])
          | Event.Deadlock_detected _ ->
            Some (common ~pid ~name:"DEADLOCK" ~ph:"i" ~ts:!cursor ~tid:0 [ ("s", Json.String "t") ])
          | Event.Run_end { outcome; _ } ->
            Some
              (common ~pid ~name:"run end" ~ph:"i" ~ts:!cursor ~tid:0
                 [ ("s", Json.String "t");
                   ("args", Json.Obj [ ("outcome", Json.String outcome) ]) ]))
        events
    in
    meta :: rendered
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.concat (List.mapi shard_events shards)));
      ("displayTimeUnit", Json.String "ms") ]

let writer oc =
  let events = ref [] in
  Trace.of_fn
    ~close:(fun () ->
      Json.to_channel oc (convert (List.rev !events));
      output_char oc '\n';
      flush oc)
    (fun ev -> events := ev :: !events)
