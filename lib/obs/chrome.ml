let ts_of_round round = round * 1000

let common ?(pid = 1) ~name ~ph ~ts ~tid extra =
  Json.Obj
    ([ ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid) ]
    @ extra)

let instant ~name ~round ~tid args =
  common ~name ~ph:"i" ~ts:(ts_of_round round) ~tid
    (("s", Json.String "t") :: (if List.is_empty args then [] else [ ("args", Json.Obj args) ]))

(* A complete ("X") slice over rounds [from, until), at least one round wide. *)
let slice ~name ~tid ~from ~until extra =
  common ~name ~ph:"X" ~ts:(ts_of_round from) ~tid
    (("dur", Json.Int (max 1 (until - from) * 1000)) :: extra)

(* Spans render as Catapult async events ("b"/"e") keyed by span id, so
   nesting across lanes survives and the validator can check causality
   structurally.  [parent] is always present in args — [Null] marks a trace
   root. *)
let span_id span = Printf.sprintf "0x%x" span

let span_begin ~pid ~ts ~trace ~span ~parent ~name ~attrs =
  common ~pid ~name ~ph:"b" ~ts ~tid:0
    [ ("cat", Json.String "span");
      ("id", Json.String (span_id span));
      ("args",
       Json.Obj
         ([ ("trace", Json.Int trace);
            ("span", Json.Int span);
            ("parent", match parent with None -> Json.Null | Some p -> Json.Int p) ]
         @ List.map (fun (k, v) -> (k, Json.String v)) attrs)) ]

let span_end ~pid ~ts ~span ~name =
  common ~pid ~name ~ph:"e" ~ts ~tid:0
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
  let lifetimes =
    Hashtbl.fold
      (fun node a_round acc ->
        let w_round =
          match Hashtbl.find_opt completion node with Some r -> r | None -> !last_round
        in
        slice
          ~name:(Printf.sprintf "node %d active" (node + 1))
          ~tid:(node + 1) ~from:a_round ~until:w_round
          [ ("args",
             Json.Obj
               [ ("activation_round", Json.Int a_round);
                 ("wrote", Json.Bool (Hashtbl.mem completion node)) ]) ]
        :: acc)
      activation []
  in
  (* Pass 2: each round is a slice on the scheduler row, from its
     Round_start to the next Round_start or the Run_end (the horizon when
     the stream has neither); compositions, picks, writes, deadlock and the
     run end are instants.  Activations are covered by the lifetimes. *)
  let open_round = ref None in
  let close_round until acc =
    match !open_round with
    | None -> acc
    | Some from ->
      open_round := None;
      slice ~name:(Printf.sprintf "round %d" from) ~tid:0 ~from ~until [] :: acc
  in
  let records =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Event.Round_start { round } ->
          let acc = close_round round acc in
          open_round := Some round;
          acc
        | Event.Compose { node; round; bits } ->
          instant ~name:"compose" ~round ~tid:(node + 1) [ ("bits", Json.Int bits) ] :: acc
        | Event.Adversary_pick { node; round; candidates } ->
          instant ~name:"adversary pick" ~round ~tid:0
            [ ("node", Json.Int (node + 1));
              ("candidates", Json.Int (List.length candidates)) ]
          :: acc
        | Event.Write { node; round; bits; board_bits } ->
          instant ~name:"write" ~round ~tid:(node + 1)
            [ ("bits", Json.Int bits); ("board_bits", Json.Int board_bits) ]
          :: acc
        | Event.Deadlock_detected { round } -> instant ~name:"DEADLOCK" ~round ~tid:0 [] :: acc
        | Event.Run_end { round; outcome } ->
          instant ~name:"run end" ~round ~tid:0 [ ("outcome", Json.String outcome) ]
          :: close_round round acc
        | Event.Activate _ | Event.Span_start _ | Event.Span_stop _ -> acc)
      [] events
  in
  let records = List.rev (close_round !last_round records) in
  Json.Obj
    [ ("traceEvents", Json.List (lifetimes @ records)); ("displayTimeUnit", Json.String "ms") ]

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
            Some (span_begin ~pid ~ts ~trace ~span ~parent ~name ~attrs)
          | Event.Span_stop { span; ts_us; _ } -> (
            let ts = max 0 (ts_us - t0) in
            cursor := ts;
            match Hashtbl.find_opt open_spans span with
            | Some name -> Some (span_end ~pid ~ts ~span ~name)
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
